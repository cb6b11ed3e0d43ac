"""Tests for rebalance failure handling — the six cases of Section V-D."""

import pytest

from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import FaultInjected
from repro.cluster.controller import SimulatedCluster
from repro.cluster.dataset import SecondaryIndexSpec
from repro.lsm.wal import LogRecordType
from repro.rebalance.operation import FAULT_SITES, FaultInjector, RebalanceOperation
from repro.rebalance.recovery import RebalanceRecoveryManager
from repro.rebalance.strategies import DynaHashStrategy


def small_config(num_nodes=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(initial_buckets_per_partition=2),
    )


def orders_rows(count, start=0):
    return [
        {"o_orderkey": key, "o_orderdate": f"1995-{(key % 12) + 1:02d}-01", "o_custkey": key % 100}
        for key in range(start, start + count)
    ]


def build_cluster(rows=400, num_nodes=2):
    cluster = SimulatedCluster(small_config(num_nodes), strategy=DynaHashStrategy())
    cluster.create_dataset(
        "orders",
        "o_orderkey",
        [SecondaryIndexSpec("idx_orderdate", ("o_orderdate",))],
    )
    cluster.feed("orders").ingest(orders_rows(rows))
    return cluster


def target_partitions(cluster, target_nodes):
    return [pid for node in cluster.nodes[:target_nodes] for pid in node.partition_ids]


def run_faulted(cluster, site, dataset="orders"):
    operation = RebalanceOperation(
        cluster,
        dataset,
        target_partitions(cluster, 1),
        fault_injector=FaultInjector([site]),
    )
    with pytest.raises(FaultInjected):
        operation.run()


def dataset_is_consistent(cluster, expected_keys):
    """Every expected key readable exactly once; directory covers the space."""
    runtime = cluster.dataset("orders")
    assert runtime.blocked is False
    assert all(not p.blocked for p in runtime.partitions.values())
    count = cluster.record_count("orders")
    assert count == len(expected_keys)
    for key in list(expected_keys)[:: max(1, len(expected_keys) // 40)]:
        assert cluster.point_lookup("orders", key) is not None
    return True


class TestAbortPaths:
    def test_case1_nc_fails_before_prepare(self):
        """Case 1: the CC aborts and every NC cleans up its received buckets."""
        cluster = build_cluster(rows=400)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["nc_fail_before_prepare"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == ["aborted"]
        # The dataset is exactly as it was before the rebalance.
        assert dataset_is_consistent(cluster, range(400))
        runtime = cluster.dataset("orders")
        assert all(not p.pending_received for p in runtime.partitions.values())

    def test_case3_cc_fails_before_commit(self):
        """Case 3: the CC recovers, sees BEGIN without COMMIT, and aborts."""
        cluster = build_cluster(rows=300)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["cc_fail_before_commit"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        # Simulate losing the CC's unforced log tail.
        cluster.cc.metadata_wal.crash()
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == ["aborted"]
        assert dataset_is_consistent(cluster, range(300))
        # Old routing still in force: buckets remain on both nodes.
        runtime = cluster.dataset("orders")
        assert len(set(runtime.global_directory.partitions())) == 4

    def test_case2_nc_fails_after_prepare_then_abort(self):
        """Case 2 (abort variant): the NC recovers and is told to clean up."""
        cluster = build_cluster(rows=300)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["nc_fail_after_prepare"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        outcomes = RebalanceRecoveryManager(cluster).recover_node("nc1")
        assert [o.action for o in outcomes] == ["aborted"]
        assert dataset_is_consistent(cluster, range(300))

    def test_abort_is_idempotent(self):
        cluster = build_cluster(rows=200)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["nc_fail_before_prepare"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        manager = RebalanceRecoveryManager(cluster)
        first = manager.recover()
        second = manager.recover()
        assert [o.action for o in first] == ["aborted"]
        assert [o.action for o in second] == ["already-done"]
        assert dataset_is_consistent(cluster, range(200))


class TestCommitPaths:
    def test_case4_nc_fails_before_acking_commit(self):
        """Case 4: COMMIT is durable; recovery re-applies the commit tasks."""
        cluster = build_cluster(rows=400)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["nc_fail_before_committed"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == ["committed"]
        assert dataset_is_consistent(cluster, range(400))
        # After the committed recovery, no bucket lives on node 1's partitions.
        runtime = cluster.dataset("orders")
        removed = set(cluster.nodes[1].partition_ids)
        assert not (set(runtime.global_directory.partitions()) & removed)

    def test_case5_cc_fails_after_commit_before_done(self):
        """Case 5: the CC re-notifies the NCs and finally writes DONE."""
        cluster = build_cluster(rows=400)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["cc_fail_after_commit"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        manager = RebalanceRecoveryManager(cluster)
        outcomes = manager.recover()
        assert [o.action for o in outcomes] == ["committed"]
        assert dataset_is_consistent(cluster, range(400))
        # A second recovery finds the DONE record and does nothing.
        assert [o.action for o in manager.recover()] == ["already-done"]

    def test_case6_cc_fails_after_done(self):
        """Case 6: nothing to do on recovery."""
        cluster = build_cluster(rows=300)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["cc_fail_after_done"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == ["already-done"]
        assert dataset_is_consistent(cluster, range(300))

    def test_commit_recovery_is_idempotent(self):
        cluster = build_cluster(rows=300)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["nc_fail_before_committed"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        manager = RebalanceRecoveryManager(cluster)
        manager.recover()
        manager.recover()
        assert dataset_is_consistent(cluster, range(300))


class TestPendingAnalysis:
    def test_pending_rebalances_reconstruction(self):
        cluster = build_cluster(rows=200)
        operation = RebalanceOperation(
            cluster,
            "orders",
            target_partitions(cluster, 1),
            fault_injector=FaultInjector(["cc_fail_after_commit"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        pending = RebalanceRecoveryManager(cluster).pending_rebalances()
        assert len(pending) == 1
        assert pending[0].is_committed
        assert not pending[0].is_finished

    def test_clean_run_leaves_nothing_pending(self):
        cluster = build_cluster(rows=200)
        RebalanceOperation(cluster, "orders", target_partitions(cluster, 1)).run()
        pending = RebalanceRecoveryManager(cluster).pending_rebalances()
        assert all(p.is_finished for p in pending)

    def test_only_durable_records_are_read(self):
        cluster = build_cluster(rows=200)
        run_faulted(cluster, "cc_fail_before_commit")
        wal = cluster.cc.metadata_wal
        (pending,) = RebalanceRecoveryManager(cluster).pending_rebalances()
        # A COMMIT the CC had not forced yet does not commit the rebalance.
        wal.append(LogRecordType.REBALANCE_COMMIT, "orders", {"rebalance_id": pending.rebalance_id})
        assert not RebalanceRecoveryManager(cluster).pending_rebalances()[0].is_committed
        assert wal.crash() == 1
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == ["aborted"]
        assert dataset_is_consistent(cluster, range(200))

    def test_records_without_a_durable_begin_are_ignored(self):
        cluster = build_cluster(rows=50)
        wal = cluster.cc.metadata_wal
        wal.append(LogRecordType.REBALANCE_COMMIT, "orders", {"rebalance_id": 99}, force=True)
        wal.append(LogRecordType.REBALANCE_DONE, "orders", force=True)
        manager = RebalanceRecoveryManager(cluster)
        assert manager.pending_rebalances() == []
        assert manager.recover() == []
        assert dataset_is_consistent(cluster, range(50))

    def test_pending_rebalances_keep_their_dataset(self):
        cluster = build_cluster(rows=200)
        cluster.create_dataset("customer", "c_custkey")
        cluster.feed("customer").ingest([{"c_custkey": key} for key in range(100)])
        run_faulted(cluster, "cc_fail_before_commit", "orders")
        run_faulted(cluster, "cc_fail_after_commit", "customer")
        manager = RebalanceRecoveryManager(cluster)
        assert [(p.dataset, p.is_committed) for p in manager.pending_rebalances()] == [
            ("orders", False),
            ("customer", True),
        ]
        outcomes = manager.recover()
        assert [(o.dataset, o.action) for o in outcomes] == [
            ("orders", "aborted"),
            ("customer", "committed"),
        ]
        assert dataset_is_consistent(cluster, range(200))
        assert cluster.record_count("customer") == 100


EXPECTED_ACTION = {
    "nc_fail_before_prepare": "aborted",
    "nc_fail_after_prepare": "aborted",
    "cc_fail_before_commit": "aborted",
    "nc_fail_before_committed": "committed",
    "cc_fail_after_commit": "committed",
    "cc_fail_after_done": "already-done",
}


class TestCrashAtEveryFaultSite:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_crash_loses_no_protocol_record_and_recovery_finishes(self, site):
        """Every protocol record is forced before the next step, so a CC crash
        at any fault site loses nothing and recovery ends the log with DONE."""
        cluster = build_cluster(rows=200)
        run_faulted(cluster, site)
        wal = cluster.cc.metadata_wal
        assert wal.crash() == 0
        outcomes = RebalanceRecoveryManager(cluster).recover()
        assert [o.action for o in outcomes] == [EXPECTED_ACTION[site]]
        assert dataset_is_consistent(cluster, range(200))
        types = [r.record_type for r in wal.records()]
        assert wal.records(durable_only=True) == wal.records()
        assert types[0] == LogRecordType.REBALANCE_BEGIN
        assert types[-1] == LogRecordType.REBALANCE_DONE
        assert (LogRecordType.REBALANCE_COMMIT in types) == (
            EXPECTED_ACTION[site] != "aborted"
        )
        assert (LogRecordType.REBALANCE_ABORT in types) == (EXPECTED_ACTION[site] == "aborted")
