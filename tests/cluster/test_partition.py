"""Tests for the storage partition (primary + pk + secondary indexes, rebalance hooks)."""

from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import BucketingConfig, LSMConfig
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key
from repro.cluster.dataset import DatasetSpec, SecondaryIndexSpec
from repro.cluster.partition import StoragePartition
from repro.hashing.bucket_id import BucketId, ROOT_BUCKET
from repro.lsm.bloom import BloomFilter
from repro.lsm.entry import Entry
from repro.lsm.stats import StorageStats


def orders_spec():
    return DatasetSpec.create(
        "orders",
        "o_orderkey",
        [
            SecondaryIndexSpec(
                "idx_orderdate", ("o_orderdate",), included_fields=("o_custkey",)
            )
        ],
    )


def make_partition(spec=None, initial_depth=1, memory_bytes=1 << 20, max_bucket_bytes=1 << 30):
    spec = spec or orders_spec()
    initial = (
        [ROOT_BUCKET]
        if initial_depth == 0
        else [BucketId(p, initial_depth) for p in range(1 << initial_depth)]
    )
    return StoragePartition(
        dataset=spec,
        partition_id=0,
        node_id="nc0",
        initial_buckets=initial,
        lsm_config=LSMConfig(memory_component_bytes=memory_bytes),
        bucketing_config=BucketingConfig(max_bucket_bytes=max_bucket_bytes),
    )


def order_row(key, date="1995-01-01", custkey=7):
    return {"o_orderkey": key, "o_orderdate": date, "o_custkey": custkey, "o_totalprice": 100.0}


def upsert(partition, rows):
    """Land ``rows`` with one ``insert_many``, the partition's one write path."""
    keys = [row["o_orderkey"] for row in rows]
    partition.insert_many(keys, list(map(hash_key, keys)), rows)


def delete(partition, keys):
    """Land ``keys`` as tombstone rows with one ``insert_many``."""
    partition.insert_many(keys, list(map(hash_key, keys)), None)


def land(partition, writes):
    """Land ``(key, record or None)`` writes in order: one ``insert_many``
    per run of upserts or of deletes."""
    for deleted, run in groupby(writes, key=lambda write: write[1] is None):
        run = list(run)
        if deleted:
            delete(partition, [key for key, _ in run])
        else:
            upsert(partition, [record for _, record in run])


class TestWriteAndRead:
    def test_insert_populates_all_indexes(self):
        partition = make_partition()
        upsert(partition, [order_row(1)])
        assert partition.lookup(1)["o_orderdate"] == "1995-01-01"
        assert partition.count_keys() == 1
        secondary_entries = list(partition.scan_secondary("idx_orderdate"))
        assert len(secondary_entries) == 1
        assert secondary_entries[0].key == ("1995-01-01", 1)
        assert secondary_entries[0].value == {"o_custkey": 7}

    def test_delete_removes_from_all_indexes(self):
        partition = make_partition()
        upsert(partition, [order_row(1)])
        delete(partition, [1])
        assert partition.lookup(1) is None
        assert partition.count_keys() == 0
        assert list(partition.scan_secondary("idx_orderdate")) == []

    def test_an_upsert_of_a_row_the_same_batch_wrote(self):
        # The second upsert's old record is the batch's earlier row, not the
        # tree's: its secondary key gets the antimatter.
        partition = make_partition()
        upsert(partition, [order_row(2, date="1995-05-05")])
        upsert(partition, [order_row(2, date="1996-06-06"), order_row(2, date="1997-07-07")])
        assert partition.lookup(2)["o_orderdate"] == "1997-07-07"
        assert [e.key for e in partition.scan_secondary("idx_orderdate")] == [("1997-07-07", 2)]

    def test_scan_primary_ordered(self):
        partition = make_partition()
        upsert(partition, [order_row(key) for key in (5, 3, 9, 1)])
        keys = [e.key for e in partition.scan_primary(ordered=True)]
        assert keys == [1, 3, 5, 9]

    def test_scan_secondary_unknown_index(self):
        partition = make_partition()
        with pytest.raises(StorageError):
            list(partition.scan_secondary("nope"))

    def test_record_count_and_size(self):
        partition = make_partition()
        upsert(partition, [order_row(key) for key in range(20)])
        assert partition.record_count() == 20
        assert partition.size_bytes > 0


class TestMaintenance:
    def test_maintain_flushes_when_over_budget(self):
        partition = make_partition(memory_bytes=512)
        upsert(partition, [order_row(key) for key in range(50)])
        report = partition.maintain()
        assert report.flush_bytes > 0
        assert partition.memory_bytes < 512 or partition.memory_bytes == 0

    def test_force_flush(self):
        partition = make_partition()
        upsert(partition, [order_row(1)])
        report = partition.maintain(force_flush=True)
        assert report.flush_bytes > 0

    def test_splits_happen_through_maintain(self):
        partition = make_partition(memory_bytes=512, max_bucket_bytes=4096)
        for start in range(0, 400, 50):
            upsert(partition, [order_row(key) for key in range(start, start + 50)])
            partition.maintain()
        assert partition.primary.bucket_count > 2

    def test_stats_snapshot_accumulates_all_indexes(self):
        partition = make_partition()
        upsert(partition, [order_row(key) for key in range(10)])
        stats = partition.stats_snapshot()
        # primary + pk index + secondary index all received the writes.
        assert stats.records_written == 30

    def test_stats_delta_across_a_split_is_not_negative(self):
        # A split replaces the parent bucket with children whose counters
        # start at zero; the primary index keeps the retired parent's
        # counters, so a before/after snapshot pair around the maintain()
        # that split sees all of the work instead of going negative.
        partition = make_partition(initial_depth=0, memory_bytes=4096, max_bucket_bytes=16384)
        for start in range(0, 160, 20):
            upsert(partition, [order_row(key) for key in range(start, start + 20)])
            if partition.maintain().splits:  # not yet: the pair below must see it
                pytest.fail("the bucket split before the measured maintain()")
        before = partition.stats_snapshot()
        upsert(partition, [order_row(key) for key in range(160, 400)])
        report = partition.maintain()
        if not report.splits:
            pytest.fail("the measured maintain() did not split a bucket")
        delta = partition.stats_snapshot().diff(before)
        work = {name: getattr(delta, name) for name in vars(delta)}
        assert all(value >= 0 for value in work.values()), work
        assert delta.records_written == 3 * 240  # primary + pk index + one secondary
        # The pass's report carries the same work.
        assert report.storage_stats() == StorageStats(
            bytes_flushed=delta.bytes_flushed,
            bytes_merged_read=delta.bytes_merged_read,
            bytes_merged_written=delta.bytes_merged_written,
            records_merged=delta.records_merged,
        )


class TestBlockedPartition:
    def test_blocked_partition_rejects_io(self):
        partition = make_partition()
        upsert(partition, [order_row(1)])
        partition.block()
        with pytest.raises(StorageError):
            upsert(partition, [order_row(2)])
        with pytest.raises(StorageError):
            delete(partition, [1])
        with pytest.raises(StorageError):
            partition.lookup(1)
        partition.unblock()
        assert partition.lookup(1) is not None


class TestRebalanceSourceSide:
    def test_snapshot_and_scan_bucket(self):
        partition = make_partition()
        upsert(partition, [order_row(key) for key in range(40)])
        bucket_id = partition.primary.bucket_ids[0]
        snapshot = partition.snapshot_bucket(bucket_id)
        entries, hashed = partition.scan_bucket_snapshot(snapshot)
        assert all(bucket_id.contains_key(e.key) for e in entries)
        assert list(hashed) == [hash_key(e.key) for e in entries]
        assert len(entries) == sum(1 for k in range(40) if bucket_id.contains_key(k))
        partition.release_bucket_snapshot(snapshot)

    def test_cleanup_moved_bucket_is_idempotent(self):
        partition = make_partition()
        upsert(partition, [order_row(key) for key in range(40)])
        bucket_id = partition.primary.bucket_ids[0]
        moved_keys = [k for k in range(40) if bucket_id.contains_key(k)]
        kept_keys = [k for k in range(40) if not bucket_id.contains_key(k)]
        partition.cleanup_moved_bucket(bucket_id)
        partition.cleanup_moved_bucket(bucket_id)  # idempotent
        assert bucket_id not in partition.primary.bucket_ids
        for key in kept_keys:
            assert partition.lookup(key) is not None
        # Secondary index entries of the moved bucket are lazily hidden.
        visible_pks = {e.key[-1] for e in partition.scan_secondary("idx_orderdate")}
        assert visible_pks == set(kept_keys)
        assert not (visible_pks & set(moved_keys))


def make_destination_partition(owned_bucket=BucketId(0b1, 1)):
    """A destination partition that owns only ``owned_bucket``.

    Rebalance destinations receive buckets they do not yet own; a partition
    covering the whole hash space could never be the target of a move.
    """
    return StoragePartition(
        dataset=orders_spec(),
        partition_id=1,
        node_id="nc1",
        initial_buckets=[owned_bucket],
        lsm_config=LSMConfig(memory_component_bytes=1 << 20),
        bucketing_config=BucketingConfig(),
    )


class TestRebalanceDestinationSide:
    def _moving_entries(self, count=20):
        return [
            Entry(key=1000 + i, value=order_row(1000 + i, date="1997-03-03"), seqnum=i + 1)
            for i in range(count)
        ]

    def test_received_bucket_invisible_until_install(self):
        partition = make_destination_partition()
        bucket_id = BucketId(0b0, 1)
        entries = [e for e in self._moving_entries() if bucket_id.contains_key(e.key)]
        partition.receive_bucket(bucket_id, entries)
        # Not visible through the primary index or the secondary index.
        for entry in entries:
            assert partition.lookup(entry.key) is None
        assert all(
            e.key[-1] not in {x.key for x in entries}
            for e in partition.scan_secondary("idx_orderdate")
        )
        partition.prepare_rebalance()
        partition.install_received_buckets()
        for entry in entries:
            assert partition.lookup(entry.key)["o_orderdate"] == "1997-03-03"
        secondary_pks = {e.key[-1] for e in partition.scan_secondary("idx_orderdate")}
        assert secondary_pks == {e.key for e in entries}

    def test_receive_is_idempotent(self):
        partition = make_destination_partition()
        bucket_id = BucketId(0b0, 1)
        first = partition.receive_bucket(bucket_id, [])
        second = partition.receive_bucket(bucket_id, [])
        assert first is second

    def test_replicated_writes_override_scanned_data(self):
        partition = make_destination_partition()
        bucket_id = BucketId(0b0, 1)
        base_key = next(k for k in range(1000, 1100) if bucket_id.contains_key(k))
        scanned = [Entry(key=base_key, value=order_row(base_key, date="old"), seqnum=1)]
        partition.receive_bucket(bucket_id, scanned)
        partition.apply_replicated_write(
            bucket_id, Entry(key=base_key, value=order_row(base_key, date="new"), seqnum=2)
        )
        partition.prepare_rebalance()
        partition.install_received_buckets()
        assert partition.lookup(base_key)["o_orderdate"] == "new"

    def test_apply_replicated_write_requires_pending_bucket(self):
        partition = make_destination_partition()
        with pytest.raises(StorageError):
            partition.apply_replicated_write(
                BucketId(0b0, 1), Entry(key=2, value=order_row(2), seqnum=1)
            )

    def test_drop_received_buckets_aborts_cleanly(self):
        owned = BucketId(0b1, 1)
        partition = make_destination_partition(owned)
        existing_key = next(k for k in range(100) if owned.contains_key(k))
        upsert(partition, [order_row(existing_key)])
        bucket_id = BucketId(0b0, 1)
        keys = [k for k in range(1000, 1040) if bucket_id.contains_key(k)]
        entries = [Entry(key=k, value=order_row(k), seqnum=i + 1) for i, k in enumerate(keys)]
        partition.receive_bucket(bucket_id, entries)
        dropped = partition.drop_received_buckets()
        assert dropped == [bucket_id]
        assert partition.drop_received_buckets() == []  # idempotent
        for key in keys:
            assert partition.lookup(key) is None
        # Pre-existing data is untouched.
        assert partition.lookup(existing_key) is not None

    def test_install_is_idempotent(self):
        partition = make_destination_partition()
        bucket_id = BucketId(0b0, 1)
        keys = [k for k in range(1000, 1020) if bucket_id.contains_key(k)]
        entries = [Entry(key=k, value=order_row(k), seqnum=i + 1) for i, k in enumerate(keys)]
        partition.receive_bucket(bucket_id, entries)
        partition.prepare_rebalance()
        first = partition.install_received_buckets()
        second = partition.install_received_buckets()
        assert first == [bucket_id]
        assert second == []
        assert partition.primary.bucket_count >= 1


def move_root_half(source, destination):
    """Move bucket ``0/1`` from ``source`` to ``destination`` as the data
    movement phase does; returns the loaded component (``None`` when the
    bucket was empty)."""
    bucket_id = BucketId(0b0, 1)
    snapshot = source.snapshot_bucket(bucket_id)
    entries, hashed = source.scan_bucket_snapshot(snapshot)
    pending = destination.receive_bucket(bucket_id, entries, hashed)
    source.release_bucket_snapshot(snapshot)
    components = pending.bucket.tree.disk_components
    return components[-1] if components else None


class TestMovedBloomFilter:
    """A moved bucket's loaded component never takes its source's Bloom
    filter: it builds its own, from the carried hash column and with the
    destination's parameters, on its first probe."""

    @settings(max_examples=80, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=25),
            min_size=1,
            max_size=4,
        ),
        probed=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_a_moved_filter_is_the_filter_a_build_makes(self, runs, probed):
        # Overlapping runs of upserts and deletes, each flushed to its own
        # component; some components' filters built by a probe, some not.
        source = make_partition()
        tree = source.primary.bucket(BucketId(0b0, 1)).tree
        for run, probe in zip(runs, probed):
            land(source, [(key, None if deleted else order_row(key)) for key, deleted in run])
            source.primary.flush_all()
            if probe and tree.disk_components:
                tree.disk_components[0].may_contain(0)
        loaded = move_root_half(source, make_destination_partition())
        if loaded is None:
            return
        assert loaded._bloom is None
        loaded.may_contain(-1)
        assert bytes(loaded._bloom._bits) == bytes(BloomFilter.build(loaded._keys)._bits)

    def test_a_built_source_filter_stays_at_the_source(self):
        source = make_partition()
        upsert(source, [order_row(key) for key in range(40)])
        source.primary.flush_all()
        (component,) = source.primary.bucket(BucketId(0b0, 1)).tree.disk_components
        component.may_contain(0)
        destination = StoragePartition(
            dataset=orders_spec(),
            partition_id=1,
            node_id="nc1",
            initial_buckets=[BucketId(0b1, 1)],
            lsm_config=LSMConfig(bloom_bits_per_key=5),
            bucketing_config=BucketingConfig(),
        )
        loaded = move_root_half(source, destination)
        assert component._bloom is not None and loaded._bloom is None
        assert loaded.bloom._bits == BloomFilter.build(loaded._keys, 5)._bits
