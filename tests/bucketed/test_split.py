"""Tests for Algorithm 1 (bucket split)."""

import pytest

from repro.common.config import LSMConfig
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key
from repro.bucketed.bucket import Bucket
from repro.bucketed.split import split_bucket
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.lsm.manifest import Manifest


def land(bucket, rows):
    """Write ``{key: value}`` rows into the bucket's tree as one run."""
    keys = list(rows)
    bucket.tree.insert_many(keys, [rows[key] for key in keys], [hash_key(key) for key in keys])


def loaded_bucket(num_keys=100, flushed=True):
    bucket = Bucket(ROOT_BUCKET, config=LSMConfig(memory_component_bytes=1 << 20))
    land(bucket, {key: f"value-{key}" for key in range(num_keys)})
    if flushed:
        bucket.flush()
    return bucket


class TestSplitProtocol:
    def test_split_preserves_all_records(self):
        bucket = loaded_bucket(200)
        result = split_bucket(bucket)
        combined = {e.key: e.value for child in result.children for e in child.scan()}
        assert combined == {k: f"value-{k}" for k in range(200)}

    def test_split_of_unflushed_bucket_flushes_first(self):
        bucket = loaded_bucket(50, flushed=False)
        result = split_bucket(bucket)
        assert result.async_flush_bytes > 0
        combined = {e.key for child in result.children for e in child.scan()}
        assert combined == set(range(50))

    def test_split_writes_no_new_data_components(self):
        """The defining property: a split only creates reference components."""
        bucket = loaded_bucket(100)
        flushed_before = bucket.tree.stats.bytes_flushed
        result = split_bucket(bucket)
        assert bucket.tree.stats.bytes_flushed == flushed_before  # nothing new written
        for child in result.children:
            assert child.tree.stats.bytes_flushed == 0
            assert child.tree.stats.bytes_merged_written == 0

    def test_sync_flush_captures_stragglers(self):
        """Writes landing between the async flush and the lock are persisted
        by the synchronous flush (the two-flush approach)."""
        bucket = loaded_bucket(50)
        # Simulate a straggler write arriving after the caller's earlier flush.
        land(bucket, {999: "late"})
        result = split_bucket(bucket)
        assert result.async_flush_bytes > 0 or result.sync_flush_bytes > 0
        combined = {e.key for child in result.children for e in child.scan()}
        assert 999 in combined

    def test_bucket_is_unlocked_after_split(self):
        bucket = loaded_bucket(10)
        split_bucket(bucket)
        assert not bucket.is_locked
        assert not bucket.tree.merges_paused

    def test_split_locked_bucket_rejected(self):
        bucket = loaded_bucket(10)
        bucket.lock()
        with pytest.raises(StorageError):
            split_bucket(bucket)

    def test_split_destroyed_bucket_rejected(self):
        bucket = loaded_bucket(10)
        bucket.deactivate()
        with pytest.raises(StorageError):
            split_bucket(bucket)

    def test_children_have_incremented_depth(self):
        bucket = loaded_bucket(10)
        result = split_bucket(bucket)
        assert result.low_child.depth == 1
        assert result.high_child.depth == 1

    def test_split_forces_manifest(self):
        bucket = loaded_bucket(30)
        manifest = Manifest("primary")
        manifest.add_bucket(0, 0)
        manifest.force()
        forced_before = manifest.force_count
        result = split_bucket(bucket, manifest=manifest)
        assert manifest.force_count == forced_before + 1
        durable_ids = manifest.valid_bucket_ids(durable=True)
        assert (result.low_child.bucket_id.prefix, 1) in durable_ids
        assert (result.high_child.bucket_id.prefix, 1) in durable_ids
        assert (0, 0) not in durable_ids

    def test_crash_before_force_reverts_to_parent(self):
        """A crash mid-split must leave the parent as the only valid bucket."""
        manifest = Manifest("primary")
        manifest.add_bucket(0, 0)
        manifest.force()
        # Simulate the crash by simply never calling split with the manifest:
        # the volatile mutation below is what a half-finished split would do.
        manifest.remove_bucket(0, 0)
        manifest.add_bucket(0, 1)
        manifest.crash_and_recover()
        assert manifest.valid_bucket_ids() == {(0, 0)}

    def test_the_locked_flush_writes_nothing_without_racing_writers(self):
        bucket = loaded_bucket(20)
        land(bucket, {500: "straggler"})
        result = split_bucket(bucket)
        assert result.async_flush_bytes > 0
        assert result.sync_flush_bytes == 0

    def test_referenced_components_counted(self):
        bucket = loaded_bucket(10)
        land(bucket, {1000: "more"})
        bucket.flush()
        result = split_bucket(bucket)
        assert result.referenced_components == len(bucket.tree.disk_components)
        for child in result.children:
            assert child.component_count == result.referenced_components
