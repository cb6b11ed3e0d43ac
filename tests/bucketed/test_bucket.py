"""Tests for a single bucket (one extendible-hash bucket as an LSM-tree)."""

import pytest

from repro.common.config import LSMConfig
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key, low_bits
from repro.bucketed.bucket import Bucket
from repro.hashing.bucket_id import ROOT_BUCKET, BucketId


def small_config():
    return LSMConfig(memory_component_bytes=1024)


def keys_for_bucket(bucket_id, count, start=0):
    """Generate `count` integer keys that hash into `bucket_id`."""
    keys = []
    key = start
    while len(keys) < count:
        if bucket_id.contains_key(key):
            keys.append(key)
        key += 1
    return keys


def land(bucket, rows):
    """Write ``{key: value}`` rows into the bucket's tree as one run (a
    ``None`` value is a delete), the way ``StoragePartition.insert_many``
    hands a bucket tree its rows."""
    keys = list(rows)
    values = [rows[key] for key in keys]
    bucket.tree.insert_many(
        keys, values, [hash_key(key) for key in keys], tombstones=[v is None for v in values]
    )


class TestBasicOperations:
    def test_insert_and_get(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "one"})
        assert bucket.tree.get(1) == "one"

    def test_delete(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "one"})
        land(bucket, {1: None})
        assert bucket.tree.get(1) is None

    def test_scan_is_key_ordered_within_bucket(self):
        bucket_id = BucketId(0b1, 1)
        bucket = Bucket(bucket_id, config=small_config())
        keys = keys_for_bucket(bucket_id, 20)
        land(bucket, {key: key for key in reversed(keys)})
        assert [e.key for e in bucket.scan()] == sorted(keys)

    def test_entries_returns_live_records(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "a", 2: "b"})
        land(bucket, {1: None})
        assert {e.key for e in bucket.entries()} == {2}

    def test_size_tracks_inserts(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        assert bucket.size_bytes == 0
        land(bucket, {1: "x" * 500})
        assert bucket.size_bytes > 500


class TestLocking:
    def test_locked_bucket_rejects_reads_and_writes(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "a"})
        bucket.lock()
        with pytest.raises(StorageError):
            bucket.scan()
        with pytest.raises(StorageError):
            bucket._check_access()
        bucket.unlock()
        assert [e.value for e in bucket.scan()] == ["a"]

    def test_double_lock_rejected(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        bucket.lock()
        with pytest.raises(StorageError):
            bucket.lock()

    def test_unlock_without_lock_rejected(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        with pytest.raises(StorageError):
            bucket.unlock()


class TestSnapshot:
    def test_snapshot_components_are_retained(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "a"})
        bucket.flush()
        snapshot = bucket.snapshot_components()
        assert all(component.refcount >= 1 for component in snapshot)
        Bucket.release_snapshot(snapshot)
        assert all(component.refcount == 0 for component in snapshot)

    def test_snapshot_survives_bucket_removal(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {1: "a"})
        bucket.flush()
        snapshot = bucket.snapshot_components()
        bucket.deactivate()
        # The snapshot still reads fine: components are pinned.
        assert snapshot[0].get(1).value == "a"
        Bucket.release_snapshot(snapshot)
        assert all(component.is_destroyed for component in snapshot)


class TestSplitInto:
    def test_children_cover_parent_and_are_disjoint(self):
        bucket = Bucket(BucketId(0b1, 1), config=small_config())
        keys = keys_for_bucket(bucket.bucket_id, 100)
        land(bucket, {key: f"v{key}" for key in keys})
        bucket.flush()
        low, high = bucket.split_into()
        low_keys = {e.key for e in low.scan()}
        high_keys = {e.key for e in high.scan()}
        assert low_keys | high_keys == set(keys)
        assert low_keys & high_keys == set()

    def test_children_depth_and_prefixes(self):
        bucket = Bucket(BucketId(0b11, 2), config=small_config())
        low, high = bucket.split_into()
        assert low.bucket_id == BucketId(0b011, 3)
        assert high.bucket_id == BucketId(0b111, 3)

    def test_children_reference_not_copy(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {key: "x" * 20 for key in range(50)})
        bucket.flush()
        parent_component = bucket.disk_components[0]
        low, high = bucket.split_into()
        # No new real data was written: children hold reference components
        # pinned to the parent's component.
        assert parent_component.refcount == 2
        for child in (low, high):
            for component in child.disk_components:
                assert component.target is parent_component

    def test_resplit_of_reference_components_targets_real_component(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        land(bucket, {key: "v" for key in range(80)})
        bucket.flush()
        real = bucket.disk_components[0]
        low, _high = bucket.split_into()
        # Split the child again before any merge happened.
        lower, upper = low.split_into()
        for grandchild in (lower, upper):
            for component in grandchild.disk_components:
                assert component.target is real

    def test_point_lookup_filtering_through_references(self):
        bucket = Bucket(ROOT_BUCKET, config=small_config())
        keys = list(range(60))
        land(bucket, {key: f"v{key}" for key in keys})
        bucket.flush()
        low, high = bucket.split_into()
        for key in keys:
            side = low if low_bits(hash_key(key), 1) == 0 else high
            other = high if side is low else low
            assert side.tree.get(key) == f"v{key}"
            assert other.tree.get(key) is None
