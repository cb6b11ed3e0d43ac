"""Event bus unit behaviour and lifecycle-event ordering across operations."""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    Database,
    EventBus,
    KIB,
    LSMConfig,
)


def order_rows(count):
    return [
        {"o_orderkey": key, "o_custkey": key % 100, "o_totalprice": float(key)}
        for key in range(count)
    ]


def open_db(num_nodes=3):
    config = ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
    )
    return Database(config, strategy="dynahash")


class TestEventBus:
    def test_exact_subscription(self):
        bus = EventBus()
        seen = []
        bus.on("a.b", lambda event: seen.append(event.name))
        bus.emit("a.b", x=1)
        bus.emit("a.c")
        assert seen == ["a.b"]

    def test_wildcard_patterns(self):
        bus = EventBus()
        seen = []
        bus.on("rebalance.*", lambda event: seen.append(event.name))
        bus.on("*", lambda event: seen.append("any:" + event.name))
        bus.emit("rebalance.start")
        bus.emit("ingest.start")
        assert seen == ["rebalance.start", "any:rebalance.start", "any:ingest.start"]

    def test_payload_access(self):
        bus = EventBus()
        captured = []
        bus.on("x", captured.append)
        bus.emit("x", value=41)
        event = captured[0]
        assert event["value"] == 41
        assert event.get("missing", "d") == "d"

    def test_seq_is_monotonic(self):
        bus = EventBus()
        seqs = []
        bus.on("*", lambda event: seqs.append(event.seq))
        for _ in range(4):
            bus.emit("tick")
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 4

    def test_cancel_unsubscribes(self):
        bus = EventBus()
        seen = []
        subscription = bus.on("*", lambda event: seen.append(event.name))
        bus.emit("one")
        subscription.cancel()
        subscription.cancel()  # idempotent
        bus.emit("two")
        assert seen == ["one"]
        assert bus.subscriber_count == 0

    def test_once_fires_a_single_time(self):
        bus = EventBus()
        seen = []
        bus.once("tick", lambda event: seen.append(event.seq))
        bus.emit("tick")
        bus.emit("tick")
        assert len(seen) == 1


class TestLifecycleEvents:
    def test_dataset_and_ingest_events(self):
        with open_db() as db:
            names = []
            db.on("*", lambda event: names.append(event.name))
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(50))
            orders.delete([1, 2])
            db.drop_dataset("orders")
        assert names[0] == "dataset.create"
        assert "ingest.start" in names
        assert "ingest.complete" in names
        assert names.index("ingest.start") < names.index("ingest.complete")
        assert "dataset.delete" in names
        assert names[-2:] == ["dataset.drop", "database.close"]

    def test_ingest_complete_carries_report(self):
        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            reports = []
            db.on("ingest.complete", lambda event: reports.append(event["report"]))
            direct = orders.insert(order_rows(25))
            assert reports[0] is direct

    def test_a_delete_lands_through_the_feed(self):
        # A delete's tombstones are one feed call: its ingest.* events come
        # before the delete's own, and the report counts the tombstone rows.
        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(50))
            names = []
            reports = []
            db.on("*", lambda event: names.append(event.name))
            db.on("ingest.complete", lambda event: reports.append(event["report"]))
            deleted = orders.delete([1, 2, 2, 999])
        assert names[:4] == ["ingest.start", "ingest.complete", "dataset.delete", "op.delete"]
        (report,) = reports
        assert (report.records, report.bytes_ingested) == (4, 0)
        assert report.simulated_seconds == deleted.simulated_seconds
        assert db.metrics.counter_value("ingest.records") == 50 + 4

    def test_rebalance_event_order(self):
        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(800))
            names = []
            db.on("rebalance.*", lambda event: names.append(event.name))
            report = db.rebalance(remove=1)
            assert report.committed

        assert names[0] == "rebalance.start"
        assert names[-1] == "rebalance.complete"
        inner = names[1:-1]
        assert inner[0] == "rebalance.dataset.start"
        assert inner[-1] == "rebalance.dataset.complete"
        phases = [name for name in inner if name == "rebalance.phase"]
        assert len(phases) == 3
        # The commit point comes after data movement and before the operation
        # completes.
        assert inner.index("rebalance.commit") > inner.index("rebalance.dataset.start")
        assert inner.index("rebalance.commit") < inner.index("rebalance.dataset.complete")

    def test_rebalance_phase_payloads(self):
        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(400))
            phases = []
            db.on("rebalance.phase", lambda event: phases.append(event["phase"]))
            db.rebalance(add=1)
        assert phases == ["initialization", "data_movement", "finalization"]

    def test_node_events_on_resize(self):
        with open_db() as db:
            db.create_dataset("orders", primary_key="o_orderkey")
            db["orders"].insert(order_rows(300))
            names = []
            db.on("node.*", lambda event: names.append(event.name))
            db.rebalance(add=1)
            db.rebalance(remove=1)
        assert names == ["node.provision", "node.decommission"]

    def test_rebalance_error_event_on_injected_fault(self):
        from repro.api import FaultInjected

        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(300))
            names = []
            db.on("rebalance.*", lambda event: names.append(event.name))
            with pytest.raises(FaultInjected):
                db.rebalance(remove=1, fault_sites=["nc_fail_before_prepare"])
            assert names[-1] == "rebalance.error"
            db.recover()

    def test_rebalance_complete_carries_report(self):
        with open_db() as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(200))
            payloads = []
            db.on("rebalance.complete", lambda event: payloads.append(event.payload))
            report = db.rebalance(add=1)
        assert payloads[0]["report"] is report
        assert payloads[0]["committed"] is True
        assert payloads[0]["new_nodes"] == 4
