"""A delete lands as tombstone rows of the one write path, and the state is
the row loop's.

``Dataset.delete`` hashes and routes the whole call once, checks every touched
partition for a block before anything lands, reads each touched partition's
distinct keys with one ``lookup_many`` (the live records it reports) and lands
each partition's keys with one ``StoragePartition.insert_many`` whose rows
carry ``record=None``.  The oracle below is the row loop that path replaced:
``LSMTree.delete`` on the key's primary bucket tree and on the primary-key
index, plus antimatter for the old record's secondary keys.  Every tree's
entries, sequence numbers, memory hash columns and stats, the report and what
reads see afterwards must be the loop's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BucketingConfig, ClusterConfig, Database, LSMConfig, SecondaryIndexSpec
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key

from .test_batch_landing import state

LOADED = 200


def open_db(split):
    """Two nodes x two partitions, a secondary index, ``LOADED`` rows; with
    ``split`` the buckets are small enough to split and flush."""
    lsm = LSMConfig(memory_component_bytes=2048) if split else LSMConfig()
    bucketing = BucketingConfig(max_bucket_bytes=3000) if split else BucketingConfig()
    db = Database(
        ClusterConfig(num_nodes=2, partitions_per_node=2, lsm=lsm, bucketing=bucketing),
        strategy="dynahash",
    )
    dataset = db.create_dataset(
        "t", primary_key="k", secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))]
    )
    dataset.insert(
        [{"k": key, "c": key % 5, "v": "x" * 40} for key in range(LOADED)], batch_size=16
    )
    return db, dataset


def delete_row_at_a_time(db, keys):
    """The oracle: one ``lookup_many`` of each touched partition's distinct
    keys (the reads the delete is priced and counted by), then each key, in
    call order, tombstoned in every index by ``LSMTree.delete``; then the
    maintenance sweep.  Returns the records deleted per partition."""
    runtime = db.cluster.dataset("t")
    distinct = {}
    for key in keys:
        pid = runtime.partition_of_key(key)
        distinct.setdefault(pid, {})[key] = hash_key(key)
    per_partition = {}
    for pid, hashes in distinct.items():
        found, _ = runtime.partitions[pid].lookup_many(list(hashes), list(hashes.values()))
        live = sum(record is not None for record in found)
        if live:
            per_partition[pid] = live
    for key in keys:
        hashed = hash_key(key)
        partition = runtime.partitions[runtime.partition_of_key(key, hashed)]
        tree = partition.primary.bucket_for_key(key, hashed).tree
        old = tree.peek(key, hashed)
        tree.delete(key, hashed)
        partition.primary_key_index.delete(key, hashed)
        if old is not None and not old.tombstone:
            for spec in partition.dataset.secondary_indexes:
                old_key = spec.secondary_key(old.value) + (key,)
                partition.secondary_indexes[spec.name].delete(old_key)
    for partition in runtime.partitions.values():
        partition.maintain()
    return per_partition


def cluster_state(db):
    runtime = db.cluster.dataset("t")
    return [(pid, state(runtime.partitions[pid])) for pid in sorted(runtime.partitions)]


def secondary_keys(db):
    runtime = db.cluster.dataset("t")
    return sorted(
        entry.key
        for partition in runtime.partitions.values()
        for entry in partition.scan_secondary("by_c")
    )


calls = st.lists(
    # Loaded keys, keys never written and repeats inside a call.
    st.lists(st.integers(0, LOADED + 15), min_size=1, max_size=24),
    min_size=1,
    max_size=3,
)


class TestDeleteEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        split=st.booleans(),
        scale_out=st.sampled_from(["never", "before", "between"]),
        calls=calls,
    )
    def test_deletes_land_as_the_row_loop(self, split, scale_out, calls):
        (db, dataset), (oracle_db, oracle_dataset) = open_db(split), open_db(split)
        if scale_out == "before":
            db.rebalance(add=1)
            oracle_db.rebalance(add=1)
        assert cluster_state(db) == cluster_state(oracle_db)
        for number, keys in enumerate(calls):
            if scale_out == "between" and number == 1:
                db.rebalance(add=1)
                oracle_db.rebalance(add=1)
            report = dataset.delete(keys)
            expected = delete_row_at_a_time(oracle_db, keys)
            assert report.per_partition_deletes == expected
            assert report.records_deleted == sum(expected.values())
            assert report.keys_requested == len(keys)
            assert cluster_state(db) == cluster_state(oracle_db)
        probe = list(range(LOADED + 20))
        assert dataset.get_many(probe) == oracle_dataset.get_many(probe)
        assert secondary_keys(db) == secondary_keys(oracle_db)
        assert dataset.count() == oracle_dataset.count()
        db.close()
        oracle_db.close()

    def test_an_absent_key_is_read_once(self):
        # The read counters of deleting an absent key are those of one get
        # of it: the old path probed it a second time to find the old record.
        moved = []
        for verb in ("get", "delete"):
            db, dataset = open_db(split=True)
            runtime = db.cluster.dataset("t")
            for partition in runtime.partitions.values():
                partition.maintain(force_flush=True)
            before = [p.stats_snapshot() for p in runtime.partitions.values()]
            getattr(dataset, verb)(LOADED + 7)
            after = [p.stats_snapshot() for p in runtime.partitions.values()]
            moved.append(
                [
                    (d.records_read, d.components_opened, d.bloom_negative_skips)
                    for d in (a.diff(b) for a, b in zip(after, before))
                ]
            )
            db.close()
        assert moved[0] == moved[1]
        assert sum(skips for _, _, skips in moved[1]) >= 1


class TestDeleteContract:
    def test_a_blocked_partition_refuses_the_whole_call(self):
        db, dataset = open_db(split=False)
        runtime = db.cluster.dataset("t")
        first = 0
        home = runtime.partition_of_key(first)
        other = next(k for k in range(LOADED) if runtime.partition_of_key(k) != home)
        # The call reaches an open partition first and the blocked one second.
        blocked = runtime.partitions[runtime.partition_of_key(other)]
        blocked.block()
        before = cluster_state(db)
        with pytest.raises(StorageError):
            dataset.delete([first, other])
        assert cluster_state(db) == before
        blocked.unblock()
        assert dataset.get(first) is not None and dataset.get(other) is not None
        assert dataset.count() == LOADED
        db.close()

    def test_a_tuple_is_one_key_on_a_composite_key_dataset(self):
        db = Database(ClusterConfig(num_nodes=2, partitions_per_node=2), strategy="dynahash")
        dataset = db.create_dataset("c", primary_key=["a", "b"])
        dataset.insert([{"a": a, "b": b} for a in range(4) for b in ("x", "y")])
        report = dataset.delete((1, "x"))
        assert (report.keys_requested, report.records_deleted) == (1, 1)
        assert dataset.get((1, "x")) is None and dataset.get((1, "y")) is not None
        report = dataset.delete([(2, "x"), (2, "y"), (9, "z")])
        assert (report.keys_requested, report.records_deleted) == (3, 2)
        assert dataset.count() == 8 - 3
        db.close()

    def test_a_tuple_is_many_keys_on_a_single_key_dataset(self):
        db, dataset = open_db(split=False)
        report = dataset.delete((1, 2))
        assert (report.keys_requested, report.records_deleted) == (2, 2)
        assert dataset.count() == LOADED - 2
        db.close()
