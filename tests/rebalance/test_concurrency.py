"""Unit tests for the concurrent-write channel of a rebalance (Section V-A)."""

from repro.common.config import ClusterConfig
from repro.cluster.controller import SimulatedCluster
from repro.lsm.entry import estimate_value_size
from repro.rebalance.concurrency import LogReplicator
from repro.rebalance.plan import BucketMove, RebalancePlan
from repro.rebalance.strategies import DynaHashStrategy


def open_channel():
    """A two-partition dataset with one bucket (partition 0's) moving to 1."""
    cluster = SimulatedCluster(
        ClusterConfig(num_nodes=2, partitions_per_node=1),
        strategy=DynaHashStrategy(initial_buckets_per_partition=1),
    )
    runtime = cluster.create_dataset("t", "k")
    cluster.feed("t").ingest([{"k": key, "v": f"old-{key}"} for key in range(40)])
    old = runtime.global_directory
    (moving,) = old.buckets_of_partition(0)
    new = old.copy()
    new.reassign(moving, 1)
    plan = RebalancePlan(old, new, [BucketMove(moving, 0, 1)])
    runtime.partitions[1].receive_bucket(moving, [])
    replicator = LogReplicator(runtime, plan, {0: "nc0", 1: "nc1"})
    moving_keys = [key for key in range(100, 200) if old.lookup_key(key)[1] == 0]
    staying_keys = [key for key in range(100, 200) if old.lookup_key(key)[1] == 1]
    return runtime, replicator, moving, moving_keys, staying_keys


class TestLogReplicator:
    def test_write_applies_at_the_source_and_returns_the_row_size(self):
        runtime, replicator, _, moving_keys, staying_keys = open_channel()
        for key in (moving_keys[0], staying_keys[0]):
            row = {"k": key, "v": "concurrent"}
            assert replicator.write(row) == estimate_value_size(row)
            source = runtime.partitions[runtime.global_directory.lookup_key(key)[1]]
            assert source.lookup(key) == row
        assert replicator.stats.concurrent_writes == 2
        assert replicator.stats.replicated_records == 1

    def test_moving_bucket_write_is_replicated_as_the_stored_copy(self):
        runtime, replicator, moving, moving_keys, _ = open_channel()
        key = moving_keys[0]
        row = {"k": key, "v": "concurrent"}
        size = replicator.write(row)
        stored = runtime.partitions[0].lookup(key)
        pending = runtime.partitions[1].pending_received[moving]
        replicated = pending.bucket.tree.get(key)
        # One copy of the caller's row, shared by source and destination.
        assert replicated is stored and stored is not row and stored == row
        assert pending.replicated_records == 1
        assert replicator.stats.replicated_bytes == size
        assert replicator.stats.bytes_by_route == {"nc0->nc1": size}

    def test_delete_tombstones_the_source_and_the_pending_bucket(self):
        runtime, replicator, moving, moving_keys, staying_keys = open_channel()
        for key in (moving_keys[0], staying_keys[0]):
            replicator.write({"k": key, "v": "concurrent"})
        replicator.delete(moving_keys[0])
        replicator.delete(staying_keys[0])
        preloaded = next(k for k in range(40) if runtime.global_directory.lookup_key(k)[1] == 0)
        replicator.delete(preloaded)
        assert runtime.partitions[0].lookup(preloaded) is None
        assert runtime.partitions[0].lookup(moving_keys[0]) is None
        assert runtime.partitions[1].lookup(staying_keys[0]) is None
        pending = runtime.partitions[1].pending_received[moving]
        assert pending.bucket.tree.get_entry(moving_keys[0]).tombstone
        assert replicator.stats.concurrent_writes == 5
        # The moving bucket saw one insert and two deletes.
        assert replicator.stats.replicated_records == 3
