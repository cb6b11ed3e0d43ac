"""Unit tests for the concurrent-write channel of a rebalance (Section V-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.hashutil import hash_key
from repro.cluster.controller import SimulatedCluster
from repro.cluster.dataset import SecondaryIndexSpec
from repro.lsm.entry import Entry, estimate_value_size
from repro.rebalance.concurrency import LogReplicator
from repro.rebalance.operation import RebalanceOperation
from repro.rebalance.plan import BucketMove, RebalancePlan
from repro.rebalance.strategies import DynaHashStrategy


def open_channel():
    """A two-partition dataset with one bucket (partition 0's) moving to 1."""
    cluster = SimulatedCluster(
        ClusterConfig(num_nodes=2, partitions_per_node=1),
        strategy=DynaHashStrategy(initial_buckets_per_partition=1),
    )
    runtime = cluster.create_dataset(
        "t", "k", [SecondaryIndexSpec("by_v", ("v",), included_fields=("k",))]
    )
    cluster.feed("t").ingest([{"k": key, "v": f"old-{key}"} for key in range(40)])
    old = runtime.global_directory
    (moving,) = old.buckets_of_partition(0)
    new = old.copy()
    new.reassign(moving, 1)
    plan = RebalancePlan(old, new, [BucketMove(moving, 0, 1)])
    runtime.partitions[1].receive_bucket(moving, [])
    replicator = LogReplicator(runtime, plan)
    moving_keys = [key for key in range(100, 200) if old.lookup_key(key)[1] == 0]
    staying_keys = [key for key in range(100, 200) if old.lookup_key(key)[1] == 1]
    return runtime, replicator, moving, moving_keys, staying_keys


def write_oracle(replicator, row):
    """The row-at-a-time channel write that ``write_many`` replaced: route on
    the old directory, insert at the source, and replicate the stored copy
    when the row's bucket is moving; returns the row's size."""
    runtime = replicator.runtime
    key = runtime.spec.primary_key_of(row)
    hashed = hash_key(key)
    bucket, source_partition = replicator.plan.old_directory.lookup_hash(hashed)
    (record,), (size,) = runtime.partitions[source_partition].insert_many([(key, hashed, row)])
    assert size == estimate_value_size(record)
    replicator.stats.concurrent_writes += 1
    move = replicator._moving.get(bucket)
    if move is None:
        return size
    entry = Entry(key=key, value=record, seqnum=replicator._next_seqnum())
    destination = runtime.partitions[move.destination_partition]
    destination.apply_replicated_write(move.bucket, entry, hashed)
    replicator.stats.replicated_records += 1
    replicator.stats.replicated_bytes += size
    return size


def concurrent_write_oracle(operation, replicator, row):
    """The per-write report the move windows replaced: one ``op.update``."""
    cost = operation.cluster.cost
    row_bytes = write_oracle(replicator, row)
    operation._emit(
        "op.update",
        latency_seconds=cost.parse_time(1) + cost.network_time(2 * row_bytes) + cost.rpc_time(3),
        records=1,
    )


def channel_state(runtime):
    """Everything a concurrent write touches, partition by partition."""

    def entries(items):
        return [(e.key, e.value, e.seqnum, e.tombstone, e.size_bytes) for e in items]

    state = []
    for pid in sorted(runtime.partitions):
        partition = runtime.partitions[pid]
        stats = partition.stats_snapshot()  # before the scans below count their reads
        pending = {
            bucket.label: (
                entries(received.bucket.tree.memory.sorted_entries()),
                received.replicated_records,
                {name: entries(buffer) for name, buffer in received.secondary_buffer.items()},
            )
            for bucket, received in partition.pending_received.items()
        }
        state.append(
            (
                pid,
                entries(partition.scan_primary(ordered=True)),
                entries(partition.primary_key_index.memory.sorted_entries()),
                {
                    name: entries(tree.memory.sorted_entries())
                    for name, tree in partition.secondary_indexes.items()
                },
                stats,
                pending,
            )
        )
    return state


class TestLogReplicator:
    def test_write_applies_at_the_source_and_returns_the_row_size(self):
        runtime, replicator, _, moving_keys, staying_keys = open_channel()
        rows = [{"k": key, "v": "concurrent"} for key in (moving_keys[0], staying_keys[0])]
        assert replicator.write_many(rows) == [estimate_value_size(row) for row in rows]
        for row in rows:
            source = runtime.partitions[runtime.global_directory.lookup_key(row["k"])[1]]
            assert source.lookup(row["k"]) == row
        assert replicator.stats.concurrent_writes == 2
        assert replicator.stats.replicated_records == 1

    def test_moving_bucket_write_is_replicated_as_the_stored_copy(self):
        runtime, replicator, moving, moving_keys, _ = open_channel()
        key = moving_keys[0]
        row = {"k": key, "v": "concurrent"}
        (size,) = replicator.write_many([row])
        stored = runtime.partitions[0].lookup(key)
        pending = runtime.partitions[1].pending_received[moving]
        replicated = pending.bucket.tree.get(key)
        # One copy of the caller's row, shared by source and destination.
        assert replicated is stored and stored is not row and stored == row
        assert pending.replicated_records == 1
        assert replicator.stats.replicated_bytes == size

    def test_a_replicated_tombstone_lands_in_the_pending_bucket(self):
        runtime, replicator, moving, moving_keys, _ = open_channel()
        key = moving_keys[0]
        replicator.write_many([{"k": key, "v": "concurrent"}])
        destination = runtime.partitions[1]
        destination.apply_replicated_write(
            moving, Entry(key=key, value=None, seqnum=99, tombstone=True), hash_key(key)
        )
        pending = destination.pending_received[moving]
        assert pending.bucket.tree.peek(key).tombstone
        assert pending.bucket.tree.get(key) is None
        assert pending.replicated_records == 2
        # The tombstone buffers no secondary entry; the write before it did.
        assert [e.key for e in pending.secondary_buffer["by_v"]] == [("concurrent", key)]

    def test_an_empty_window_writes_nothing(self):
        runtime, replicator, *_ = open_channel()

        def landed():
            return [(p.memory_bytes, p.stats_snapshot()) for p in runtime.partitions.values()]

        before = landed()
        assert replicator.write_many([]) == []
        assert landed() == before
        assert replicator.stats.concurrent_writes == 0


class TestWriteManyEqualsTheRowOracle:
    """``write_many`` over any split of a write stream into windows leaves the
    state a loop of single-row writes leaves, and returns the same sizes."""

    @settings(max_examples=40, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 240), st.text(max_size=5)), min_size=1, max_size=60
        ),
        cuts=st.lists(st.integers(0, 60), max_size=6),
    )
    def test_same_state_wal_stats_and_sizes(self, writes, cuts):
        # Keys overlap the preload (0..39), each other and both partitions.
        rows = [{"k": key, "v": value} for key, value in writes]
        batched_runtime, batched, *_ = open_channel()
        looped_runtime, looped, *_ = open_channel()
        bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
        sizes = []
        for start, stop in zip(bounds, bounds[1:]):
            sizes.extend(batched.write_many(rows[start:stop]))
        assert sizes == [write_oracle(looped, row) for row in rows]
        assert batched.stats == looped.stats
        assert channel_state(batched_runtime) == channel_state(looped_runtime)


def resize_with_writes(monkeypatch=None, autopilot=False, rows=51):
    """Grow a two-node session by one with ``rows`` concurrent writes; returns
    the session, the resize report and every ``op.*`` event it emitted.  With
    ``monkeypatch`` the windows run through the per-write oracles."""
    if monkeypatch is not None:

        def per_write(self, replicator, window, per_write):
            for row in window:
                concurrent_write_oracle(self, replicator, row)

        monkeypatch.setattr(RebalanceOperation, "_concurrent_writes", per_write)
    # Small budgets so the dataset splits: a bucket per partition cannot spread.
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=16 * 1024),
            bucketing=BucketingConfig(max_bucket_bytes=24 * 1024),
        )
    )
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": key, "v": "x" * 64} for key in range(1200)])
    if autopilot:
        db.autopilot(policy="threshold", check_every_ops=3, dry_run=True)
    events = []
    db.on("op.*", events.append)
    report = db.rebalance(
        add=1, concurrent_rows={"t": [{"k": 1000 + i, "v": "z" * 16} for i in range(rows)]}
    )
    assert report.committed
    return db, report, events


class TestMoveWindowsBatchTheirWrites:
    def test_one_batch_per_window_and_no_single_write_events(self):
        rows = 51
        db, report, events = resize_with_writes(rows=rows)
        moves = sum(r.buckets_moved for r in report.dataset_reports)
        assert moves > 1
        per_move = max(1, rows // moves)
        expected, left = [], rows
        for _ in range(moves):
            if min(per_move, left):
                expected.append(min(per_move, left))
                left -= min(per_move, left)
        if left:
            expected.append(left)  # the trailing window
        assert not [e for e in events if e.name == "op.update"]
        batches = [e for e in events if e.name == "op.batch" and e.get("concurrent")]
        assert [e["count"] for e in batches] == expected and len(expected) == moves + 1
        assert all(e["op"] == "update" and len(e["latencies"]) == e["count"] for e in batches)
        db.close()

    def test_an_autopilot_session_still_sees_one_sample_per_write(self):
        rows = 51
        db, _, events = resize_with_writes(autopilot=True, rows=rows)
        batches = [e for e in events if e.name == "op.batch" and e.get("concurrent")]
        assert [e["count"] for e in batches] == [1] * rows
        db.close()

    @pytest.mark.parametrize("autopilot", [False, True])
    def test_metrics_and_data_equal_the_per_write_oracle(self, monkeypatch, autopilot):
        batched, _, batched_events = resize_with_writes(autopilot=autopilot)
        snapshot = batched.metrics.snapshot()
        batched_state = channel_state(batched.cluster.dataset("t"))
        batched.close()
        looped, _, looped_events = resize_with_writes(monkeypatch, autopilot=autopilot)
        assert looped.metrics.snapshot() == snapshot
        assert channel_state(looped.cluster.dataset("t")) == batched_state
        # The latencies travel in arrival order, sample for sample.
        assert [
            latency
            for e in batched_events
            if e.name == "op.batch" and e.get("concurrent")
            for latency in e["latencies"]
        ] == [e["latency_seconds"] for e in looped_events if e.name == "op.update"]
        if autopilot:
            # Same check cadence, same decisions.
            pilots = (batched.autopilot_engine, looped.autopilot_engine)
            assert len({(p._ops_seen, p._last_check_at) for p in pilots}) == 1
            assert pilots[0].decision_trace() == pilots[1].decision_trace()
        looped.close()
