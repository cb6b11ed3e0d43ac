"""Database/Dataset façade: session lifecycle and dataset-handle verbs."""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    ClusterError,
    ConfigError,
    Database,
    KIB,
    LSMConfig,
    QuerySpec,
    SecondaryIndexSpec,
    TableAccess,
    UnknownDatasetError,
)


def small_config(**kwargs):
    return ClusterConfig(
        num_nodes=kwargs.pop("num_nodes", 2),
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
        **kwargs,
    )


def order_rows(count, start=0):
    return [
        {
            "o_orderkey": key,
            "o_custkey": key % 100,
            "o_orderdate": f"199{5 + key % 3}-{(key % 12) + 1:02d}-01",
            "o_totalprice": float(key % 500),
        }
        for key in range(start, start + count)
    ]


@pytest.fixture
def db():
    with Database(small_config(), strategy="dynahash") as database:
        yield database


class TestSessionLifecycle:
    def test_context_manager_closes(self):
        with Database(small_config(), strategy="dynahash") as database:
            assert not database.closed
        assert database.closed

    def test_closed_session_rejects_verbs(self):
        database = Database(small_config(), strategy="dynahash")
        database.close()
        with pytest.raises(ClusterError):
            database.create_dataset("orders", primary_key="o_orderkey")
        with pytest.raises(ClusterError):
            database.dataset_names()
        with pytest.raises(ClusterError):
            database.rebalance(add=1)

    def test_escaped_dataset_handle_rejects_verbs_after_close(self):
        database = Database(small_config(), strategy="dynahash")
        orders = database.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(10))
        database.close()
        with pytest.raises(ClusterError):
            orders.insert(order_rows(1, start=10))
        with pytest.raises(ClusterError):
            orders.get(1)
        with pytest.raises(ClusterError):
            list(orders.scan())
        with pytest.raises(ClusterError):
            orders.delete([1])
        with pytest.raises(ClusterError):
            orders.count()
        with pytest.raises(ClusterError):
            database.execute("q", lambda context: list(context.scan("orders")))
        with pytest.raises(ClusterError):
            database.execute_spec(QuerySpec("q", (TableAccess("orders"),)))
        # `exists` is a non-throwing probe: it answers even on a closed session.
        assert orders.exists

    def test_close_is_idempotent_and_emits_once(self):
        database = Database(small_config(), strategy="dynahash")
        events = []
        database.on("database.close", lambda event: events.append(event.name))
        database.close()
        database.close()
        assert events == ["database.close"]

    def test_describe_snapshot(self, db):
        db.create_dataset("orders", primary_key="o_orderkey")
        snapshot = db.describe()
        assert snapshot["nodes"] == 2
        assert snapshot["strategy"] == "DynaHash"
        assert snapshot["node_ids"] == ["nc0", "nc1"]
        assert "orders" in snapshot["datasets"]


class TestDatasetHandle:
    def test_insert_get_roundtrip(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        report = orders.insert(order_rows(500))
        assert report.records == 500
        assert orders.count() == 500
        assert len(orders) == 500
        assert orders.get(123)["o_custkey"] == 23
        assert orders.get(10_000) is None
        assert 123 in orders
        assert 10_000 not in orders

    def test_upsert_replaces_by_key(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(100))
        orders.upsert([{**orders.get(42), "o_totalprice": 999.5}])
        assert orders.get(42)["o_totalprice"] == 999.5
        assert orders.count() == 100

    def test_delete_tombstones_and_reports(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(100))
        report = orders.delete([0, 1, 2, 12345])
        assert report.records_deleted == 3
        assert report.keys_requested == 4
        assert report.keys_missing == 1
        assert report.simulated_seconds > 0
        assert orders.get(0) is None
        assert orders.count() == 97

    @pytest.mark.parametrize(
        "keys, deleted, missing",
        [([1, 1], 1, 0), ([2_000, 2_000, 2_000], 0, 1), ([3, 3_000, 3, 3_000, 4], 2, 1)],
    )
    def test_delete_counts_a_repeated_key_once(self, db, keys, deleted, missing):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(10))
        report = orders.delete(keys)
        assert report.keys_requested == len(keys)
        assert (report.records_deleted, report.keys_missing) == (deleted, missing)

    def test_delete_single_key(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(10))
        report = orders.delete(5)
        assert report.records_deleted == 1
        assert orders.get(5) is None

    def test_scan_yields_all_records(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(200))
        scanned = list(orders.scan())
        assert len(scanned) == 200
        assert {row["o_orderkey"] for row in scanned} == set(range(200))

    def test_secondary_index_in_spec(self, db):
        orders = db.create_dataset(
            "orders",
            primary_key="o_orderkey",
            secondary_indexes=[
                SecondaryIndexSpec("idx_date", ("o_orderdate",), included_fields=("o_custkey",))
            ],
        )
        assert orders.spec.index_names() == ["idx_date"]
        assert orders.describe()["secondary_indexes"] == ["idx_date"]

    def test_handle_survives_rebalance(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(1000))
        db.rebalance(add=1)
        assert db.num_nodes == 3
        assert orders.count() == 1000
        assert orders.get(77)["o_custkey"] == 77

    def test_unknown_dataset_raises(self, db):
        with pytest.raises(UnknownDatasetError):
            db.dataset("nope")

    def test_getitem_and_drop(self, db):
        db.create_dataset("orders", primary_key="o_orderkey")
        handle = db["orders"]
        assert handle.exists
        handle.drop()
        assert db.dataset_names() == []
        assert not handle.exists


class TestRebalanceVerbs:
    def test_exactly_one_size_argument(self, db):
        with pytest.raises(ConfigError):
            db.rebalance()
        with pytest.raises(ConfigError):
            db.rebalance(target_nodes=3, add=1)

    def test_add_remove_roundtrip_preserves_data(self, db):
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(order_rows(800))
        before = orders.count()
        add_report = db.add_nodes(1)
        assert add_report.committed
        remove_report = db.remove_nodes(1)
        assert remove_report.committed
        assert orders.count() == before

    def test_fault_injection_rejected_by_hashing_baseline(self):
        with Database(small_config(num_nodes=3), strategy="hashing") as database:
            orders = database.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(100))
            with pytest.raises(ConfigError, match="fault injection"):
                database.rebalance(remove=1, fault_sites=["cc_fail_before_commit"])

    def test_fault_injection_and_recover(self):
        from repro.api import FaultInjected

        with Database(small_config(num_nodes=3), strategy="dynahash") as database:
            orders = database.create_dataset("orders", primary_key="o_orderkey")
            orders.insert(order_rows(600))
            with pytest.raises(FaultInjected):
                database.rebalance(remove=1, fault_sites=["cc_fail_before_commit"])
            outcomes = database.recover()
            assert [outcome.action for outcome in outcomes] == ["aborted"]
            assert orders.count() == 600


class TestConfigStrategyWiring:
    def test_config_strategy_name_is_resolved(self):
        from repro.rebalance import StaticHashStrategy

        with Database(small_config(strategy="static")) as database:
            assert isinstance(database.strategy, StaticHashStrategy)

    def test_explicit_strategy_overrides_config(self):
        from repro.rebalance import DynaHashStrategy

        with Database(small_config(strategy="static"), strategy="dynahash") as database:
            assert isinstance(database.strategy, DynaHashStrategy)

    def test_strategy_options_forwarded(self):
        with Database(
            small_config(), strategy="dynahash", strategy_options={"max_bucket_bytes": 1234}
        ) as database:
            assert database.strategy.max_bucket_bytes == 1234

    def test_strategy_options_combine_with_config_named_strategy(self):
        with Database(
            small_config(strategy="static"), strategy_options={"total_buckets": 64}
        ) as database:
            assert database.strategy.total_buckets == 64

    def test_simulated_cluster_accepts_strategy_names_too(self):
        from repro.cluster import SimulatedCluster
        from repro.rebalance import GlobalHashingStrategy

        cluster = SimulatedCluster(small_config(), strategy="hashing")
        assert isinstance(cluster.strategy, GlobalHashingStrategy)
        cluster = SimulatedCluster(small_config(strategy="hashing"))
        assert isinstance(cluster.strategy, GlobalHashingStrategy)
