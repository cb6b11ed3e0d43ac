"""Tests for the CC metadata log: the contract rebalance recovery reads."""

import pytest

from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import FaultInjected
from repro.cluster.controller import SimulatedCluster
from repro.lsm.wal import LogRecordType, WriteAheadLog
from repro.rebalance.operation import FaultInjector, RebalanceOperation
from repro.rebalance.recovery import RebalanceRecoveryManager
from repro.rebalance.strategies import DynaHashStrategy

BEGIN = LogRecordType.REBALANCE_BEGIN
COMMIT = LogRecordType.REBALANCE_COMMIT
DONE = LogRecordType.REBALANCE_DONE


class TestAppendAndForce:
    def test_append_assigns_increasing_lsns(self):
        wal = WriteAheadLog()
        records = [
            wal.append(record_type, "ds", {"rebalance_id": 1}, force=force)
            for record_type, force in [(BEGIN, True), (COMMIT, False), (DONE, True)]
        ]
        lsns = [record.lsn for record in records]
        assert lsns == sorted(set(lsns))

    def test_append_assigns_lsns_counting_from_one_per_log(self):
        for _ in range(2):
            wal = WriteAheadLog()
            first = wal.append(BEGIN, "ds", {"rebalance_id": 1})
            second = wal.append(COMMIT, "ds", {"rebalance_id": 1})
            assert (first.lsn, second.lsn) == (1, 2)
            assert wal.records() == [first, second]

    def test_unforced_records_are_not_durable(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", {"rebalance_id": 1})
        assert wal.records(durable_only=True) == []
        assert len(wal.records()) == 1

    def test_force_makes_all_previous_records_durable(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds")
        wal.append(COMMIT, "ds")
        wal.force()
        assert [r.record_type for r in wal.records(durable_only=True)] == [BEGIN, COMMIT]

    def test_forced_append_forces_tail(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds")
        wal.append(COMMIT, "ds", force=True)
        assert len(wal.records(durable_only=True)) == 2

    def test_payload_is_stored_not_copied(self):
        # The BEGIN record's plan is written into its payload after the
        # append (the CC's metadata transaction).
        wal = WriteAheadLog()
        record = wal.append(BEGIN, "ds", {"rebalance_id": 1}, force=True)
        record.payload.update(plan="p")
        assert wal.records(durable_only=True)[0].payload == {"rebalance_id": 1, "plan": "p"}

    def test_default_payload_is_a_fresh_dict_per_record(self):
        wal = WriteAheadLog()
        first = wal.append(BEGIN, "ds")
        second = wal.append(DONE, "ds")
        first.payload["rebalance_id"] = 1
        assert second.payload == {}
        assert (first.record_type, first.dataset) == (BEGIN, "ds")


class TestRecords:
    def test_records_returns_a_copy(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", force=True)
        wal.append(COMMIT, "ds")
        wal.records().clear()
        wal.records(durable_only=True).clear()
        assert [r.record_type for r in wal.records()] == [BEGIN, COMMIT]
        assert [r.record_type for r in wal.records(durable_only=True)] == [BEGIN]


class TestCrash:
    def test_crash_discards_unforced_tail(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", {"rebalance_id": 1}, force=True)
        wal.append(COMMIT, "ds", {"rebalance_id": 1})
        wal.append(DONE, "ds", {"rebalance_id": 1})
        assert wal.crash() == 2
        assert [r.record_type for r in wal.records()] == [BEGIN]
        assert wal.records() == wal.records(durable_only=True)

    def test_crash_with_everything_forced_loses_nothing(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", force=True)
        assert wal.crash() == 0
        assert len(wal.records()) == 1

    def test_lsns_stay_increasing_across_a_crash(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", force=True)
        wal.append(COMMIT, "ds")
        wal.crash()
        wal.append(DONE, "ds", force=True)
        assert [r.lsn for r in wal.records(durable_only=True)] == [1, 3]

    def test_a_second_crash_loses_nothing_more(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", force=True)
        wal.append(COMMIT, "ds")
        assert wal.crash() == 1
        assert wal.crash() == 0
        assert [r.record_type for r in wal.records()] == [BEGIN]

    def test_records_appended_after_a_crash_can_be_forced(self):
        wal = WriteAheadLog()
        wal.append(BEGIN, "ds", force=True)
        wal.append(COMMIT, "ds")
        wal.crash()
        wal.append(LogRecordType.REBALANCE_ABORT, "ds")
        assert [r.record_type for r in wal.records(durable_only=True)] == [BEGIN]
        wal.force()
        assert [r.record_type for r in wal.records(durable_only=True)] == [
            BEGIN,
            LogRecordType.REBALANCE_ABORT,
        ]
        assert wal.crash() == 0


def faulted_rebalance_log():
    """The CC log of one rebalance whose CC fails before COMMIT, recovered."""
    cluster = SimulatedCluster(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            lsm=LSMConfig(memory_component_bytes=16 * 1024),
            bucketing=BucketingConfig(initial_buckets_per_partition=2),
        ),
        strategy=DynaHashStrategy(),
    )
    cluster.create_dataset("orders", "o_orderkey")
    cluster.feed("orders").ingest([{"o_orderkey": key} for key in range(200)])
    operation = RebalanceOperation(
        cluster,
        "orders",
        list(cluster.nodes[0].partition_ids),
        fault_injector=FaultInjector(["cc_fail_before_commit"]),
    )
    with pytest.raises(FaultInjected):
        operation.run()
    cluster.cc.metadata_wal.crash()
    RebalanceRecoveryManager(cluster).recover()
    return [(r.lsn, r.record_type) for r in cluster.cc.metadata_wal.records()]


def test_identical_faulted_rebalances_write_identical_logs():
    first = faulted_rebalance_log()
    assert first == faulted_rebalance_log()
    assert [record_type for _, record_type in first] == [
        BEGIN,
        LogRecordType.REBALANCE_ABORT,
        DONE,
    ]
