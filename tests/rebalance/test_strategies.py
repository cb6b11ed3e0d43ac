"""Tests for the rebalancing strategies (Hashing, StaticHash, DynaHash, ConsistentHash)."""

import pytest

from repro.api import Database
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import ConfigError
from repro.cluster.controller import SimulatedCluster
from repro.cluster.dataset import SecondaryIndexSpec
from repro.rebalance.strategies import (
    ConsistentHashStrategy,
    DynaHashStrategy,
    GlobalHashingStrategy,
    StaticHashStrategy,
    strategy_by_name,
)


def small_config(num_nodes=2, ppn=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=ppn,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(max_bucket_bytes=1 << 30, initial_buckets_per_partition=2),
    )


def orders_rows(count, start=0):
    return [
        {"o_orderkey": key, "o_orderdate": f"1996-{(key % 12) + 1:02d}-15", "o_custkey": key % 77}
        for key in range(start, start + count)
    ]


def build_db(strategy, rows=600, num_nodes=2, ppn=2):
    db = Database(small_config(num_nodes, ppn), strategy=strategy)
    orders = db.create_dataset(
        "orders",
        "o_orderkey",
        [SecondaryIndexSpec("idx_orderdate", ("o_orderdate",))],
    )
    if rows:
        orders.insert(orders_rows(rows))
    return db


def assert_all_readable(db, count):
    orders = db["orders"]
    assert orders.count() == count
    for key in range(0, count, max(1, count // 50)):
        assert orders.get(key) is not None


class TestFactory:
    def test_names(self):
        assert isinstance(strategy_by_name("DynaHash"), DynaHashStrategy)
        assert isinstance(strategy_by_name("statichash"), StaticHashStrategy)
        assert isinstance(strategy_by_name("Hashing"), GlobalHashingStrategy)
        assert isinstance(strategy_by_name("consistent"), ConsistentHashStrategy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            strategy_by_name("mystery")  # reprolint: allow[reg-unknown-strategy] -- asserts the unknown-name error path


class TestLayouts:
    def test_dynahash_layout_is_dynamic(self):
        cluster = build_db(DynaHashStrategy(), rows=0).cluster
        runtime = cluster.dataset("orders")
        assert runtime.routing_mode == "directory"
        assert not runtime.bucketing.static

    def test_statichash_layout_has_fixed_buckets(self):
        cluster = build_db(StaticHashStrategy(total_buckets=64), rows=0).cluster
        runtime = cluster.dataset("orders")
        assert runtime.bucketing.static
        assert len(runtime.global_directory) == 64
        # Paper: buckets are spread evenly, 64 buckets / 4 partitions = 16 each.
        per_partition = [
            len(runtime.global_directory.buckets_of_partition(pid))
            for pid in cluster.partition_ids()
        ]
        assert per_partition == [16, 16, 16, 16]

    def test_hashing_layout_is_modulo(self):
        cluster = build_db(GlobalHashingStrategy(), rows=0).cluster
        runtime = cluster.dataset("orders")
        assert runtime.routing_mode == "modulo"
        assert runtime.global_directory is None

    def test_consistent_hash_layout_covers_space(self):
        cluster = build_db(ConsistentHashStrategy(total_buckets=64), rows=0).cluster
        runtime = cluster.dataset("orders")
        assert len(runtime.global_directory) == 64
        assert set(runtime.global_directory.partitions()) <= set(cluster.partition_ids())

    def test_statichash_rejects_bad_bucket_count(self):
        with pytest.raises(ConfigError):
            StaticHashStrategy(total_buckets=0)

    @pytest.mark.parametrize("strategy", ["statichash", "consistenthash"])
    def test_bucket_count_defaults_to_the_config(self, strategy):
        config = ClusterConfig(
            num_nodes=2, partitions_per_node=2, bucketing=BucketingConfig(static_total_buckets=64)
        )
        db = Database(config, strategy=strategy)
        db.create_dataset("orders", "o_orderkey").insert(orders_rows(200))
        runtime = db.cluster.dataset("orders")
        assert runtime.bucketing.static_total_buckets == 64
        assert len(runtime.global_directory) == 64
        db.rebalance(3)
        assert len(db.cluster.dataset("orders").global_directory) == 64
        assert_all_readable(db, 200)

    def test_explicit_bucket_count_overrides_the_config(self):
        config = ClusterConfig(bucketing=BucketingConfig(static_total_buckets=64))
        cluster = SimulatedCluster(config, strategy=StaticHashStrategy(total_buckets=32))
        cluster.create_dataset("orders", "o_orderkey")
        assert len(cluster.dataset("orders").global_directory) == 32


class TestScaleIn:
    @pytest.mark.parametrize(
        "strategy",
        [DynaHashStrategy(), StaticHashStrategy(total_buckets=32), ConsistentHashStrategy(total_buckets=32)],
        ids=["DynaHash", "StaticHash", "ConsistentHash"],
    )
    def test_remove_node_keeps_data(self, strategy):
        db = build_db(strategy, rows=600, num_nodes=3)
        report = db.remove_nodes(1)
        assert report.committed
        assert db.num_nodes == 2
        assert_all_readable(db, 600)

    def test_hashing_remove_node_keeps_data(self):
        db = build_db(GlobalHashingStrategy(), rows=600, num_nodes=3)
        report = db.remove_nodes(1)
        assert report.committed
        assert db.num_nodes == 2
        assert_all_readable(db, 600)

    def test_bucketed_moves_less_than_hashing(self):
        # Use a large workload scale so data-movement work (not fixed RPC
        # latency) dominates the simulated durations, as it does at the
        # paper's 100 GB/node scale.
        bucketed = Database(small_config(4, 2), strategy=DynaHashStrategy(), workload_scale=500.0)
        hashed = Database(
            small_config(4, 2), strategy=GlobalHashingStrategy(), workload_scale=500.0
        )
        for db in (bucketed, hashed):
            db.create_dataset("orders", "o_orderkey").insert(orders_rows(800))
        bucketed_report = bucketed.remove_nodes(1)
        hashed_report = hashed.remove_nodes(1)
        assert bucketed_report.total_records_moved < hashed_report.total_records_moved
        assert bucketed_report.simulated_seconds < hashed_report.simulated_seconds

    def test_consistent_hash_moves_only_affected_buckets(self):
        db = build_db(ConsistentHashStrategy(total_buckets=64), rows=400, num_nodes=4)
        cluster = db.cluster
        runtime = cluster.dataset("orders")
        before = dict(runtime.global_directory.assignments)
        removed_pids = set(cluster.nodes[-1].partition_ids)
        db.remove_nodes(1)
        after = cluster.dataset("orders").global_directory.assignments
        for bucket, old_pid in before.items():
            if old_pid not in removed_pids:
                assert after[bucket] == old_pid


class TestScaleOut:
    @pytest.mark.parametrize(
        "strategy",
        [DynaHashStrategy(initial_buckets_per_partition=2), StaticHashStrategy(total_buckets=32)],
        ids=["DynaHash", "StaticHash"],
    )
    def test_add_node_keeps_data_and_uses_new_node(self, strategy):
        db = build_db(strategy, rows=600, num_nodes=2)
        report = db.add_nodes(1)
        assert report.committed
        assert db.num_nodes == 3
        assert_all_readable(db, 600)
        new_pids = db.cluster.nodes[2].partition_ids
        runtime = db.cluster.dataset("orders")
        assert any(runtime.partitions[pid].record_count() > 0 for pid in new_pids)

    def test_hashing_add_node(self):
        db = build_db(GlobalHashingStrategy(), rows=600, num_nodes=2)
        report = db.add_nodes(1)
        assert report.committed
        assert db.num_nodes == 3
        assert_all_readable(db, 600)

    def test_remove_then_add_back(self):
        """The Figure 7 experiment shape: N -> N-1 -> N."""
        db = build_db(DynaHashStrategy(), rows=500, num_nodes=3)
        db.remove_nodes(1)
        assert_all_readable(db, 500)
        db.add_nodes(1)
        assert db.num_nodes == 3
        assert_all_readable(db, 500)


class TestConcurrentWritesThroughStrategy:
    def test_concurrent_rows_are_preserved(self):
        db = build_db(DynaHashStrategy(), rows=400, num_nodes=2)
        report = db.rebalance(1, concurrent_rows={"orders": orders_rows(80, start=5000)})
        assert report.committed
        assert db["orders"].count() == 480

    def test_ingestion_still_works_after_rebalance(self):
        db = build_db(DynaHashStrategy(), rows=300, num_nodes=3)
        db.remove_nodes(1)
        db["orders"].insert(orders_rows(200, start=9000))
        assert db["orders"].count() == 500
