"""A partition lands a batch a run at a time, and the state is the row loop's.

``StoragePartition.insert_many`` takes a batch as aligned columns (keys,
hashes, records), routes every row to its bucket tree first,
then hands each touched bucket tree, the primary-key index and each secondary
index its rows in one ``LSMTree.insert_many``.  The oracle below is the
row-at-a-time loop it replaced (with the upsert's secondary-index
antimatter): every tree's entries and sequence numbers, the memory
components' hash columns, the stats and the returned rows and sizes must be
the loop's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import BucketingConfig, LSMConfig
from repro.common.errors import ComponentStateError, DirectoryError, StorageError
from repro.common.hashutil import hash_key
from repro.cluster.dataset import DatasetSpec, SecondaryIndexSpec
from repro.cluster.partition import StoragePartition
from repro.hashing.bucket_id import ROOT_BUCKET, BucketId
from repro.lsm.entry import estimate_value_size


def land_row_at_a_time(partition, routed_records):
    """The row loop: each row goes through every index in turn.

    An upsert first reads the key's old record and writes antimatter for its
    secondary keys the new record does not rewrite.
    """
    partition._check_not_blocked()
    stored, sizes = [], []
    for key, hashed, record in routed_records:
        record_dict = dict(record)
        row_bytes = estimate_value_size(record_dict)
        bucket = partition.primary.bucket_for_key(key, hashed)
        bucket._check_access()
        old = bucket.tree.peek(key, hashed)
        old_record = None if old is None or old.tombstone else old.value
        bucket.tree.insert(key, record_dict, hashed, row_bytes)
        partition.primary_key_index.insert(key, None, hashed)
        for spec in partition.dataset.secondary_indexes:
            index = partition.secondary_indexes[spec.name]
            entry_key = spec.secondary_key(record_dict) + (key,)
            if old_record is not None:
                old_key = spec.secondary_key(old_record) + (key,)
                if old_key != entry_key:
                    index.delete(old_key)
            index.insert(entry_key, spec.covered_value(record_dict))
        stored.append(record_dict)
        sizes.append(row_bytes)
    return stored, sizes


def spec_for(secondary):
    indexes = [SecondaryIndexSpec("by_c", ("c",), included_fields=("v",))] if secondary else []
    return DatasetSpec.create("t", "k", indexes)


def make_partition(secondary, initial=(ROOT_BUCKET,)):
    return StoragePartition(
        dataset=spec_for(secondary),
        partition_id=0,
        node_id="nc0",
        initial_buckets=list(initial),
        lsm_config=LSMConfig(memory_component_bytes=2048),
        bucketing_config=BucketingConfig(max_bucket_bytes=3000),
    )


def routed(rows):
    """``(key, hash, row)`` per row, as the row loop takes them."""
    return [(row["k"], hash_key(row["k"]), row) for row in rows]


def columns(routed_records):
    """The same rows as the aligned columns ``insert_many`` takes."""
    keys, hashes, records = zip(*routed_records)
    return list(keys), list(hashes), list(records)


def row(key, c=0, width=8):
    return {"k": key, "c": c, "v": "x" * width}


def split_partition(secondary, splits):
    """A partition whose root bucket has split ``splits`` rounds (or none)."""
    partition = make_partition(secondary)
    key = 1000
    while partition.primary.bucket_count < (1 << splits):
        partition.insert_many(*columns(routed([row(k, k % 3, 40) for k in range(key, key + 20)])))
        partition.maintain()
        key += 20
    return partition


def entries_of(entries):
    return [(e.key, e.value, e.seqnum, e.tombstone) for e in entries]


def state(partition):
    """Everything a landing can change, comparable across two partitions."""
    trees = {str(b.bucket_id): b.tree for b in partition.primary.buckets()}
    trees["pk"] = partition.primary_key_index
    trees.update(partition.secondary_indexes)
    per_tree = {
        name: (
            tree._seqnum,
            entries_of(tree.memory._entries.values()),
            None if tree.memory._hashes is None else list(tree.memory._hashes),
            tree.memory.size_bytes,
            [entries_of(c.entries()) for c in tree.disk_components],
            tree.stats,
        )
        for name, tree in trees.items()
    }
    return per_tree, partition.stats_snapshot()


batches = st.lists(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 3), st.integers(0, 24)),
        min_size=1,
        max_size=30,
    ),
    min_size=1,
    max_size=6,
)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        secondary=st.booleans(),
        splits=st.integers(0, 2),
        batches=batches,
        maintain=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_batches_land_as_the_row_loop(self, secondary, splits, batches, maintain):
        # Keys repeat across and inside batches (upserts), some batches are
        # one row, and maintenance between batches puts old records on disk.
        oracle = split_partition(secondary, splits)
        batched = split_partition(secondary, splits)
        assert state(oracle) == state(batched)
        for batch, maintain_after in zip(batches, maintain):
            rows = routed([row(k, c, width) for k, c, width in batch])
            expected = land_row_at_a_time(oracle, rows)
            assert batched.insert_many(*columns(rows)) == expected
            assert state(batched) == state(oracle)
            if maintain_after:
                done, expected_done = batched.maintain(), oracle.maintain()
                assert done.storage_stats() == expected_done.storage_stats()
                assert [s.parent.bucket_id for s in done.splits] == [
                    s.parent.bucket_id for s in expected_done.splits
                ]
                assert state(batched) == state(oracle)

    def test_a_shallow_bucket_keeps_its_rows_in_order(self):
        # Bucket 0/1 sits beside two depth-2 buckets, so it owns slots 00 and
        # 10 of the local directory; its rows must land in arrival order.
        buckets = (BucketId(0, 1), BucketId(1, 2), BucketId(3, 2))
        oracle = make_partition(True, initial=buckets)
        batched = make_partition(True, initial=buckets)
        rows = routed([row(k, k % 2) for k in range(40)] + [row(k, 3) for k in range(0, 40, 3)])
        assert {hashed & 3 for _, hashed, _ in rows} == {0, 1, 2, 3}
        assert batched.insert_many(*columns(rows)) == land_row_at_a_time(oracle, rows)
        assert state(batched) == state(oracle)

    def test_a_one_row_batch_is_the_row_loop(self):
        for secondary in (False, True):
            oracle, single = make_partition(secondary), make_partition(secondary)
            for key, c in ((1, 0), (2, 1), (1, 2), (1, 2)):
                record = row(key, c)
                (expected,), _ = land_row_at_a_time(oracle, routed([record]))
                (stored,), _ = single.insert_many(*columns(routed([record])))
                assert stored == expected and stored is not record
                assert state(single) == state(oracle)

    def test_an_empty_batch_lands_nothing(self):
        partition = make_partition(True)
        before = state(partition)
        assert partition.insert_many([], [], []) == ([], [])
        assert partition.insert_many([], [], None) == ([], [])
        assert state(partition) == before


def two_bucket_partition():
    partition = make_partition(True, initial=(BucketId(0, 1), BucketId(1, 1)))
    partition.insert_many(*columns(routed([row(k, k % 3) for k in range(20)])))
    return partition


def rows_in_both_buckets():
    rows = routed([row(k, 5) for k in range(10, 30)])
    assert {hashed & 1 for _, hashed, _ in rows} == {0, 1}
    return rows


class TestRefusedBatchesLandNothing:
    def assert_refused(self, partition, error, rows):
        before = state(partition)
        with pytest.raises(error):
            partition.insert_many(*columns(rows))
        assert state(partition) == before

    def test_a_blocked_partition(self):
        partition = two_bucket_partition()
        partition.block()
        self.assert_refused(partition, StorageError, rows_in_both_buckets())

    def test_a_bucket_locked_by_a_split(self):
        partition = two_bucket_partition()
        # The second bucket the batch touches is the locked one.
        rows = rows_in_both_buckets()
        second = BucketId(1 - (rows[0][1] & 1), 1)
        partition.primary.bucket(second).lock()
        self.assert_refused(partition, StorageError, rows)

    @pytest.mark.parametrize("which", ["second bucket", "pk index", "secondary index"])
    def test_a_deactivated_memory_component(self, which):
        partition = two_bucket_partition()
        rows = rows_in_both_buckets()
        tree = {
            "second bucket": partition.primary.bucket(BucketId(1 - (rows[0][1] & 1), 1)).tree,
            "pk index": partition.primary_key_index,
            "secondary index": partition.secondary_indexes["by_c"],
        }[which]
        tree.memory.deactivate()
        self.assert_refused(partition, ComponentStateError, rows)

    def test_an_unowned_hash(self):
        partition = make_partition(True, initial=(BucketId(1, 1),))
        owned = [k for k in range(40) if hash_key(k) & 1][:3]
        unowned = next(k for k in range(40) if not hash_key(k) & 1)
        rows = routed([row(k) for k in owned + [unowned]])
        self.assert_refused(partition, DirectoryError, rows)

    @pytest.mark.parametrize("buckets", [1, 2])
    @pytest.mark.parametrize("column", ["hashes", "records"])
    @pytest.mark.parametrize("length", [4, 8])
    def test_a_column_of_another_length_than_the_keys(self, buckets, column, length):
        # Two buckets used to store all six rows beside a four-slot column
        # (lookups found four); one bucket stored them and its first flush
        # raised IndexError.
        initial = (ROOT_BUCKET,) if buckets == 1 else (BucketId(0, 1), BucketId(1, 1))
        partition = make_partition(True, initial=initial)
        full = dict(zip(("keys", "hashes", "records"), columns(routed(map(row, range(8))))))
        given = {name: values[:6] for name, values in full.items()}
        given[column] = full[column][:length]
        before = state(partition)
        with pytest.raises(ValueError, match=f"^{length} {column} for 6 keys$"):
            partition.insert_many(given["keys"], given["hashes"], given["records"])
        assert state(partition) == before
        partition.maintain(force_flush=True)
        assert [partition.lookup(key) for key in full["keys"]] == [None] * 8
