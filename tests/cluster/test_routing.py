"""Tests for key → partition routing, the functions every write and read uses.

Modulo routing (``hashed % n``) is what the Hashing and StaticHash baselines
route through; directory routing (``GlobalDirectory``) is DynaHash's.  Feeds
and queries route through a :class:`RoutingSnapshot`, point operations
and ``Dataset`` runs through the live ``DatasetRuntime.partitions_of_hashes``
(one key: ``partition_of_key``); all of them must agree.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import ClusterConfig, Database
from repro.cluster.routing import RoutingSnapshot
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import BucketId
from repro.hashing.extendible import GlobalDirectory


def modulo(num_partitions):
    return RoutingSnapshot(num_partitions=num_partitions)


def partition_of(routing, key):
    """The partition a routing snapshot sends ``key`` to."""
    (pid,) = routing.partitions_of_hashes([hash_key(key)])
    return pid


def moved_fraction(before, after, keys):
    moved = sum(1 for key in keys if partition_of(before, key) != partition_of(after, key))
    return moved / len(keys)


def uneven_directory():
    """A directory with buckets of depths 1, 2 and 3 over three partitions."""
    low_low, low_high = BucketId(0, 1).split()
    deep_a, deep_b = low_high.split()
    return GlobalDirectory({BucketId(1, 1): 0, low_low: 1, deep_a: 2, deep_b: 0})


class TestModuloRouting:
    def test_partition_in_range(self):
        routing = modulo(8)
        assert all(0 <= partition_of(routing, key) < 8 for key in range(1000))

    def test_deterministic(self):
        assert partition_of(modulo(8), "k") == partition_of(modulo(8), "k")

    def test_roughly_uniform(self):
        routing = modulo(4)
        counts = [0] * 4
        for key in range(8000):
            counts[partition_of(routing, key)] += 1
        assert max(counts) / min(counts) < 1.2

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            modulo(0)

    def test_moved_fraction_is_high_when_n_changes(self):
        """The motivation for DynaHash: modulo rehashing moves nearly everything."""
        assert moved_fraction(modulo(16), modulo(20), range(5000)) > 0.7

    def test_moved_fraction_zero_when_unchanged(self):
        assert moved_fraction(modulo(8), modulo(8), range(1000)) == 0.0

    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_partition_always_valid(self, n, key):
        assert 0 <= partition_of(modulo(n), key) < n

    def test_hashing_spreads_a_contiguous_key_range(self):
        """Keys that would all fall in one range partition spread under hashing."""
        routing = modulo(4)
        counts = [0] * 4
        for key in range(120):
            counts[partition_of(routing, key)] += 1
        assert max(counts) / (sum(counts) / 4) < 2.0


class TestDirectoryRouting:
    def test_snapshot_routes_through_directory(self):
        directory = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=2)
        routing = RoutingSnapshot(directory)
        for key in range(200):
            assert partition_of(routing, key) == directory.lookup_hash(hash_key(key))[1]

    def test_snapshot_does_not_see_later_reassignments(self):
        directory = GlobalDirectory.initial(num_partitions=2, buckets_per_partition=2)
        routing = RoutingSnapshot(directory)
        before = [partition_of(routing, key) for key in range(200)]
        for bucket in directory.buckets_of_partition(0):
            directory.reassign(bucket, 1)
        assert [partition_of(routing, key) for key in range(200)] == before
        assert {directory.lookup_hash(hash_key(key))[1] for key in range(200)} == {1}

    def test_snapshot_needs_a_directory_or_a_partition_count(self):
        """Without a directory a snapshot routes by hash modulo its
        partition count, which must then be positive."""
        with pytest.raises(ValueError):
            RoutingSnapshot()
        with pytest.raises(ValueError):
            RoutingSnapshot(None, num_partitions=0)

    def test_moving_one_bucket_moves_only_its_keys(self):
        """Scale-out under DynaHash moves whole buckets: the keys that change
        partition are exactly the reassigned bucket's."""
        before = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=4)
        after = before.copy()
        moved_bucket = before.buckets_of_partition(0)[0]
        after.reassign(moved_bucket, 4)
        keys = range(4000)
        fraction = moved_fraction(
            RoutingSnapshot(before),
            RoutingSnapshot(after),
            keys,
        )
        owned = sum(1 for key in keys if moved_bucket.contains_hash(hash_key(key))) / len(keys)
        assert fraction == owned
        assert 0 < fraction < 0.15

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=50))
    def test_partitions_of_hashes_matches_lookup_hash(self, hashes):
        directory = uneven_directory()
        assert directory.partitions_of_hashes(hashes) == [
            directory.lookup_hash(hashed)[1] for hashed in hashes
        ]


class TestSnapshotRuns:
    def test_a_run_routes_as_the_directory_or_the_modulo_does(self):
        directory = uneven_directory()
        hashes = [hash_key(key) for key in list(range(300)) + ["a", (1, "x")]]
        by_directory = RoutingSnapshot(directory)
        assert by_directory.partitions_of_hashes(hashes) == [
            directory.lookup_hash(hashed)[1] for hashed in hashes
        ]
        assert modulo(5).partitions_of_hashes(hashes) == [hashed % 5 for hashed in hashes]
        assert modulo(5).partitions_of_hashes([]) == by_directory.partitions_of_hashes([]) == []


class TestRuntimeRouting:
    @pytest.mark.parametrize(
        "strategy, mode", [("dynahash", "directory"), ("hashing", "modulo")]
    )
    def test_live_routing_matches_a_snapshot(self, strategy, mode):
        with Database(ClusterConfig(num_nodes=2, partitions_per_node=2, strategy=strategy)) as db:
            db.create_dataset("t", primary_key="k")
            runtime = db.cluster.dataset("t")
            assert runtime.routing_mode == mode
            snapshot = runtime.routing_snapshot()
            keys = list(range(300)) + ["a", "b", (1, "x")]
            assert [runtime.partition_of_key(key) for key in keys] == [
                partition_of(snapshot, key) for key in keys
            ]

    def test_a_supplied_hash_routes_like_the_key(self):
        with Database(ClusterConfig(num_nodes=2, partitions_per_node=2)) as db:
            db.create_dataset("t", primary_key="k")
            runtime = db.cluster.dataset("t")
            for key in range(300):
                assert runtime.partition_of_key(key, hash_key(key)) == runtime.partition_of_key(key)

    def test_rows_land_on_the_partition_routing_names(self):
        with Database(ClusterConfig(num_nodes=2, partitions_per_node=2)) as db:
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert([{"k": key} for key in range(200)])
            runtime = db.cluster.dataset("t")
            for key in range(200):
                owner = runtime.partitions[runtime.partition_of_key(key)]
                assert owner.lookup(key) == {"k": key}
