"""Instrumented verbs: op.* events, db.metrics wiring, phase tagging."""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    Database,
    KIB,
    LSMConfig,
    MetricsRegistry,
    PHASE_REBALANCE,
    PHASE_STEADY,
    QuerySpec,
    TableAccess,
)


def config():
    return ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
        strategy="dynahash",
    )


def order_rows(count, start=0):
    return [
        {"o_orderkey": key, "o_custkey": key % 100, "o_totalprice": float(key)}
        for key in range(start, start + count)
    ]


@pytest.fixture()
def db():
    with Database(config()) as database:
        yield database


class TestOpEvents:
    def test_every_verb_emits_its_op_event(self, db):
        events = []
        db.on("op.*", events.append)
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(50))
        orders.upsert(order_rows(5))
        orders.get(3)
        list(orders.scan(low=0, high=10))
        orders.delete([3, 4])
        db.execute("count", lambda context: len(list(context.scan("orders"))))
        names = [event.name for event in events]
        assert names == [
            "op.insert",
            "op.update",
            "op.read",
            "op.scan",
            "op.delete",
            "op.query",
        ]
        for event in events:
            assert event["latency_seconds"] > 0

    def test_insert_event_carries_batch_records(self, db):
        events = []
        db.on("op.insert", events.append)
        db.create_dataset("orders", primary_key="o_orderkey").insert(order_rows(25))
        assert events[0]["records"] == 25
        assert events[0]["dataset"] == "orders"

    def test_read_event_reports_found(self, db):
        events = []
        db.on("op.read", events.append)
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(10))
        orders.get(5)
        orders.get(10_000)
        assert events[0]["found"] is True
        assert events[1]["found"] is False

    def test_abandoned_scan_emits_nothing(self, db):
        events = []
        db.on("op.scan", events.append)
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(50))
        iterator = orders.scan()
        next(iterator)
        del iterator
        assert events == []
        list(orders.scan())
        assert len(events) == 1

    def test_execute_spec_emits_op_query(self, db):
        events = []
        db.on("op.query", events.append)
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(20))
        db.execute_spec(QuerySpec("probe", (TableAccess("orders", selectivity=0.5),)))
        assert len(events) == 1
        assert events[0]["query"] == "probe"


class TestDatabaseMetrics:
    def test_metrics_handle_records_traffic(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(30))
        orders.get(1)
        registry = db.metrics
        assert isinstance(registry, MetricsRegistry)
        assert registry.counter("ops.total").value == 2
        assert registry.counter("records.insert").value == 30
        assert registry.counter("datasets.created").value == 1
        assert registry.histogram("read", PHASE_STEADY).count == 1

    def test_rebalance_flips_the_metrics_phase_and_is_counted(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(200))
        assert not db.metrics.in_rebalance
        db.rebalance(add=1, concurrent_rows={"orders": order_rows(20, start=500)})
        assert not db.metrics.in_rebalance  # back to steady after commit
        assert db.metrics.counter("rebalance.completed").value == 1
        # The concurrent writes were sampled while the rebalance was in flight.
        assert db.metrics.histogram("update", PHASE_REBALANCE).count == 20
        assert db.metrics.gauge("cluster.nodes").value == 3

    def test_concurrent_write_latency_exceeds_steady_per_event(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(200))
        orders.upsert(order_rows(1))  # one steady single-row write sample
        db.rebalance(add=1, concurrent_rows={"orders": order_rows(10, start=500)})
        steady = db.metrics.histogram("update", PHASE_STEADY)
        rehash = db.metrics.histogram("update", PHASE_REBALANCE)
        assert rehash.count == 10
        # The replication round trip makes mid-rehash writes slower.
        assert rehash.percentile(0.99) >= steady.percentile(0.99)

    def test_metrics_survive_close_but_stop_recording(self):
        database = Database(config())
        orders = database.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(10))
        database.close()
        assert database.metrics.counter("records.insert").value == 10
        database.cluster.events.emit("op.read", latency_seconds=1.0)
        assert database.metrics.counter("ops.read").value == 0
