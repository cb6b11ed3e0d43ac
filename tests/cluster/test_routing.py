"""Tests for key → partition routing, the functions every write and read uses.

Modulo routing (``hashed % n``) is what the Hashing and StaticHash baselines
route through; directory routing (``GlobalDirectory``) is DynaHash's.  Feeds
and queries route through a :class:`RoutingSnapshot`, point operations
through the live ``DatasetRuntime.partition_of_key``, and ``Dataset`` runs
through ``GlobalDirectory.partitions_of_hashes``; all of them must agree.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import ClusterConfig, Database
from repro.cluster.controller import RoutingSnapshot
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import BucketId
from repro.hashing.extendible import GlobalDirectory


def modulo(num_partitions):
    return RoutingSnapshot("modulo", num_partitions=num_partitions)


def moved_fraction(before, after, keys):
    return sum(1 for key in keys if before.partition_of(key) != after.partition_of(key)) / len(keys)


def uneven_directory():
    """A directory with buckets of depths 1, 2 and 3 over three partitions."""
    low_low, low_high = BucketId(0, 1).split()
    deep_a, deep_b = low_high.split()
    return GlobalDirectory({BucketId(1, 1): 0, low_low: 1, deep_a: 2, deep_b: 0})


class TestModuloRouting:
    def test_partition_in_range(self):
        routing = modulo(8)
        assert all(0 <= routing.partition_of(key) < 8 for key in range(1000))

    def test_deterministic(self):
        assert modulo(8).partition_of("k") == modulo(8).partition_of("k")

    def test_roughly_uniform(self):
        routing = modulo(4)
        counts = [0] * 4
        for key in range(8000):
            counts[routing.partition_of(key)] += 1
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
        assert 0 <= modulo(n).partition_of(key) < n

    def test_hashing_spreads_a_contiguous_key_range(self):
        """Keys that would all fall in one range partition spread under hashing."""
        routing = modulo(4)
        counts = [0] * 4
        for key in range(120):
            counts[routing.partition_of(key)] += 1
        assert max(counts) / (sum(counts) / 4) < 2.0


class TestDirectoryRouting:
    def test_snapshot_routes_through_directory(self):
        directory = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=2)
        routing = RoutingSnapshot("directory", directory=directory)
        for key in range(200):
            assert routing.partition_of(key) == directory.partition_of_key(key)

    def test_snapshot_does_not_see_later_reassignments(self):
        directory = GlobalDirectory.initial(num_partitions=2, buckets_per_partition=2)
        routing = RoutingSnapshot("directory", directory=directory)
        before = [routing.partition_of(key) for key in range(200)]
        for bucket in directory.buckets_of_partition(0):
            directory.reassign(bucket, 1)
        assert [routing.partition_of(key) for key in range(200)] == before
        assert {directory.partition_of_key(key) for key in range(200)} == {1}

    def test_snapshot_needs_a_directory_and_a_known_mode(self):
        with pytest.raises(ValueError):
            RoutingSnapshot("directory")
        with pytest.raises(ValueError):
            RoutingSnapshot("range", num_partitions=4)

    def test_moving_one_bucket_moves_only_its_keys(self):
        """Scale-out under DynaHash moves whole buckets: the keys that change
        partition are exactly the reassigned bucket's."""
        before = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=4)
        after = before.copy()
        moved_bucket = before.buckets_of_partition(0)[0]
        after.reassign(moved_bucket, 4)
        keys = range(4000)
        fraction = moved_fraction(
            RoutingSnapshot("directory", directory=before),
            RoutingSnapshot("directory", directory=after),
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
                snapshot.partition_of(key) for key in keys
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
