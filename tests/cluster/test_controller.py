"""Tests for the simulated cluster facade (CC + NCs, datasets, ingestion)."""

import pytest

from repro.api import Database
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import (
    ClusterError,
    DatasetExistsError,
    UnknownDatasetError,
    UnknownNodeError,
)
from repro.cluster.controller import SimulatedCluster
from repro.cluster.dataset import SecondaryIndexSpec
from repro.sim import drain


def small_config(num_nodes=2, partitions_per_node=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=partitions_per_node,
        lsm=LSMConfig(memory_component_bytes=8192),
        bucketing=BucketingConfig(max_bucket_bytes=1 << 20, initial_buckets_per_partition=1),
    )


def rows(count, start=0):
    return [
        {"o_orderkey": key, "o_orderdate": f"1995-01-{(key % 28) + 1:02d}", "o_custkey": key % 100}
        for key in range(start, start + count)
    ]


class TestTopology:
    def test_nodes_and_partitions_created(self):
        cluster = SimulatedCluster(small_config(num_nodes=3, partitions_per_node=4))
        assert cluster.num_nodes == 3
        assert cluster.total_partitions == 12
        assert cluster.partition_ids() == list(range(12))
        assert cluster.node_of_partition(5).node_id == "nc1"

    def test_node_lookup(self):
        cluster = SimulatedCluster(small_config())
        assert cluster.node("nc0").node_id == "nc0"
        with pytest.raises(UnknownNodeError):
            cluster.node("nc99")

    def test_node_of_unknown_partition(self):
        cluster = SimulatedCluster(small_config(num_nodes=1))
        with pytest.raises(UnknownNodeError):
            cluster.node_of_partition(99)


class TestDatasets:
    def test_create_dataset_builds_partitions_everywhere(self):
        cluster = SimulatedCluster(small_config())
        runtime = cluster.create_dataset("orders", "o_orderkey")
        assert set(runtime.partitions.keys()) == set(cluster.partition_ids())
        assert runtime.routing_mode == "directory"
        assert runtime.global_directory is not None
        # Every partition received the buckets the directory assigns it.
        for pid, partition in runtime.partitions.items():
            assert set(partition.primary.bucket_ids) == set(
                runtime.global_directory.buckets_of_partition(pid)
            )

    def test_duplicate_dataset_rejected(self):
        cluster = SimulatedCluster(small_config())
        cluster.create_dataset("orders", "o_orderkey")
        with pytest.raises(DatasetExistsError):
            cluster.create_dataset("orders", "o_orderkey")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(UnknownDatasetError):
            SimulatedCluster(small_config()).dataset("ghost")

    def test_drop_dataset(self):
        cluster = SimulatedCluster(small_config())
        cluster.create_dataset("orders", "o_orderkey")
        cluster.drop_dataset("orders")
        assert cluster.dataset_names() == []

    def test_dataset_with_secondary_indexes(self):
        cluster = SimulatedCluster(small_config())
        runtime = cluster.create_dataset(
            "orders",
            "o_orderkey",
            [SecondaryIndexSpec("idx_orderdate", ("o_orderdate",))],
        )
        partition = next(iter(runtime.partitions.values()))
        assert "idx_orderdate" in partition.secondary_indexes


class TestIngestAndLookup:
    def test_ingest_and_point_lookup(self):
        with Database(small_config()) as db:
            orders = db.create_dataset("orders", "o_orderkey")
            report = db.cluster.feed("orders").ingest(rows(500))
            assert report.records == 500
            assert report.simulated_seconds > 0
            assert orders.count() == 500
            assert orders.get(123)["o_custkey"] == 23

    def test_ingest_distributes_across_partitions(self):
        cluster = SimulatedCluster(small_config(num_nodes=2, partitions_per_node=2))
        cluster.create_dataset("orders", "o_orderkey")
        report = cluster.feed("orders").ingest(rows(2000))
        populated = [pid for pid, count in report.per_partition_records.items() if count > 0]
        assert len(populated) == 4
        counts = list(report.per_partition_records.values())
        assert max(counts) / max(1, min(counts)) < 2.0  # hash balance

    def test_ingest_report_per_node_times(self):
        cluster = SimulatedCluster(small_config())
        cluster.create_dataset("orders", "o_orderkey")
        report = cluster.feed("orders").ingest(rows(200))
        assert set(report.per_node_seconds.keys()) == {"nc0", "nc1"}
        assert report.simulated_seconds >= max(report.per_node_seconds.values())
        assert report.bottleneck_node in ("nc0", "nc1")

    def test_lookup_missing_key(self):
        with Database(small_config()) as db:
            orders = db.create_dataset("orders", "o_orderkey")
            db.cluster.feed("orders").ingest(rows(10))
            assert orders.get(10_000) is None

    def test_each_node_hosts_its_partitions(self):
        cluster = SimulatedCluster(small_config(num_nodes=2, partitions_per_node=2))
        cluster.create_dataset("orders", "o_orderkey")
        hosted = {
            node.node_id: [p.partition_id for p in node.dataset_partitions("orders")]
            for node in cluster.nodes
        }
        assert set(hosted) == {"nc0", "nc1"}
        assert all(len(pids) == 2 for pids in hosted.values())
        assert sorted(pid for pids in hosted.values() for pid in pids) == cluster.partition_ids()

    def test_describe(self):
        cluster = SimulatedCluster(small_config())
        cluster.create_dataset("orders", "o_orderkey")
        cluster.feed("orders").ingest(rows(50))
        description = cluster.describe()
        assert description["nodes"] == 2
        assert description["datasets"]["orders"]["records"] == 50

    def test_workload_scale_inflates_times(self):
        small = SimulatedCluster(small_config(), workload_scale=1.0)
        big = SimulatedCluster(small_config(), workload_scale=100.0)
        for cluster in (small, big):
            cluster.create_dataset("orders", "o_orderkey")
        small_report = small.feed("orders").ingest(rows(200))
        big_report = big.feed("orders").ingest(rows(200))
        # Node-level work scales linearly with the workload multiplier; only
        # the fixed RPC latency term does not.
        assert max(big_report.per_node_seconds.values()) > 50 * max(
            small_report.per_node_seconds.values()
        )


class TestProvisionDecommission:
    def test_provision_adds_empty_partitions(self):
        cluster = SimulatedCluster(small_config(num_nodes=2, partitions_per_node=2))
        cluster.create_dataset("orders", "o_orderkey")
        new_nodes = cluster.provision_nodes(3)
        assert cluster.num_nodes == 3
        assert len(new_nodes) == 1
        runtime = cluster.dataset("orders")
        for pid in new_nodes[0].partition_ids:
            assert runtime.partitions[pid].primary.bucket_count == 0

    def test_provision_cannot_shrink(self):
        cluster = SimulatedCluster(small_config(num_nodes=2))
        with pytest.raises(ClusterError):
            cluster.provision_nodes(1)

    def test_decommission_empty_nodes(self):
        cluster = SimulatedCluster(small_config(num_nodes=3, partitions_per_node=2))
        cluster.create_dataset("orders", "o_orderkey")
        removed = cluster.decommission_nodes(2)
        assert cluster.num_nodes == 2
        assert [node.node_id for node in removed] == ["nc2"]

    def test_decommission_rejects_nodes_with_data(self):
        cluster = SimulatedCluster(small_config(num_nodes=2, partitions_per_node=2))
        cluster.create_dataset("orders", "o_orderkey")
        cluster.feed("orders").ingest(rows(200))
        with pytest.raises(ClusterError):
            cluster.decommission_nodes(1)

    def test_decommission_cannot_remove_all_nodes(self):
        cluster = SimulatedCluster(small_config(num_nodes=1))
        with pytest.raises(ClusterError):
            cluster.decommission_nodes(0)

    def test_rebalance_without_strategy_rejected(self):
        cluster = SimulatedCluster(small_config())
        cluster.create_dataset("orders", "o_orderkey")
        with pytest.raises(ClusterError):
            drain(cluster.rebalance_to_steps(1))
