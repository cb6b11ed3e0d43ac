"""A point operation hashes its key once, at the first layer that needs it.

``hash_key`` is bound by name (``from ..common.hashutil import hash_key``) in
every module that uses it, so the counter below replaces each of those
bindings.  The dataset under test has split: every bucket holds a flushed
component, two reference components and a live memory component, so a probe
that re-hashed per Bloom filter or per reference component would show.
"""

import sys
from collections import Counter

import pytest

import repro.common.hashutil as hashutil
from repro.cluster.dataset import DatasetSpec
from repro.cluster.partition import StoragePartition
from repro.rebalance import concurrency
from repro.rebalance.concurrency import LogReplicator

from .test_dataset_batch_verbs import open_split

#: Memory, flushed and reference hits, and misses; distinct on purpose.
KEYS = [35, 3, 2790, 9999, 1234, 5000, -4, 2799, 70, 1, 2451]


@pytest.fixture
def hash_calls(monkeypatch):
    """Counter of ``hash_key`` calls by key, over every module binding it."""
    original = hashutil.hash_key
    calls = Counter()

    def counting(key):
        calls[key] += 1
        return original(key)

    bindings = [
        module
        for name, module in sys.modules.items()
        if name.startswith("repro.") and getattr(module, "hash_key", None) is original
    ]
    assert len(bindings) >= 14
    for module in bindings:
        monkeypatch.setattr(module, "hash_key", counting)
    return calls


class TestOneHashPerKey:
    def test_get(self, hash_calls):
        db, dataset = open_split()
        hash_calls.clear()
        for key in KEYS:
            dataset.get(key)
        assert hash_calls == Counter(KEYS)
        db.close()

    def test_get_many(self, hash_calls):
        db, dataset = open_split()
        hash_calls.clear()
        dataset.get_many(KEYS)
        assert hash_calls == Counter(KEYS)
        db.close()

    def test_get_many_with_the_heat_hook(self, hash_calls):
        db, dataset = open_split()
        db.start_trace()
        hash_calls.clear()
        dataset.get_many(KEYS)
        assert hash_calls == Counter(KEYS)
        db.close()

    def test_delete(self, hash_calls, monkeypatch):
        db, dataset = open_split()
        # The trailing maintenance pass hashes whatever it flushes and merges;
        # that is not the per-key path counted here.
        monkeypatch.setattr(StoragePartition, "maintain", lambda self, force_flush=False: None)
        hash_calls.clear()
        dataset.delete(KEYS)
        # Before the hash was carried down this made 85 calls for these 11
        # keys: route, lookup, one per Bloom filter and two per reference
        # component probed, and two more to route and own the tombstone.
        assert hash_calls == Counter(KEYS)
        db.close()

    def test_concurrent_rebalance_write(self, hash_calls, monkeypatch):
        db, _ = open_split()
        during_write = Counter()
        replicate = LogReplicator.write

        def counted_write(self, row):
            before = Counter(hash_calls)
            try:
                return replicate(self, row)
            finally:
                during_write.update(hash_calls - before)

        monkeypatch.setattr(LogReplicator, "write", counted_write)
        # The channel also extracts the key and sizes the row once per write.
        derived = Counter()

        def counting(name, function):
            def wrapper(*args):
                derived[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            DatasetSpec, "primary_key_of", counting("key", DatasetSpec.primary_key_of)
        )
        monkeypatch.setattr(
            concurrency, "estimate_value_size", counting("size", concurrency.estimate_value_size)
        )
        rows = [{"k": key, "v": "z" * 64} for key in range(6000, 6040)]
        report = db.rebalance(add=1, concurrent_rows={"t": rows})
        assert report.committed
        moved = sum(r.replicated_log_records for r in report.dataset_reports)
        assert 0 < moved < len(rows)  # both replicated and source-only writes
        # One hash per write, replicated or not (it used to be two: routing
        # and the source partition's insert each hashed the key).
        assert during_write == Counter(row["k"] for row in rows)
        assert derived == {"key": len(rows), "size": len(rows)}
        db.close()


def split_buckets(db):
    """Every primary bucket of ``open_split()``'s dataset."""
    runtime = db.cluster.dataset("t")
    return [b for p in runtime.partitions.values() for b in p.primary.buckets()]


class TestNoHashPerStoredRecord:
    """A disk component hashes its keys once, when it is built; reads through
    the reference components of a split dataset filter on that column.  No
    bucket of ``open_split()`` was invalidated, so the lazy-cleanup filter
    (which hashes the *routing* key on its own) is idle throughout."""

    def test_scans_hash_nothing(self, hash_calls):
        db, dataset = open_split()
        hash_calls.clear()
        assert len(list(dataset.scan())) == 2802
        assert len(list(dataset.scan(ordered=True))) == 2802
        assert len(list(dataset.scan(low=100, high=400))) == 301
        # Before the column these made 4,062 + 4,062 + 602 calls: every entry
        # a reference component let through or filtered out, in each of the
        # two references that point at its flushed component.
        assert not hash_calls
        db.close()

    def test_sizes_and_counts_hash_nothing(self, hash_calls):
        db, _ = open_split()
        buckets = split_buckets(db)
        hash_calls.clear()
        assert sum(bucket.size_bytes for bucket in buckets) == 282436
        assert sum(len(bucket.tree) for bucket in buckets) == 2802
        # 4,062 calls each before: one per target entry per reference.
        assert not hash_calls
        db.close()

    def test_an_idle_maintenance_pass_hashes_nothing(self, hash_calls):
        db, _ = open_split()
        # Merges paused so the references survive the pass; nothing is over
        # its flush budget, so all that is left is `_should_split` sizing
        # every bucket through its references.
        for bucket in split_buckets(db):
            bucket.tree.pause_merges()
        hash_calls.clear()
        for partition in db.cluster.dataset("t").partitions.values():
            report = partition.maintain()
            assert (report.flush_bytes, report.merge_write_bytes, report.splits) == (0, 0, [])
        assert not hash_calls  # 4,062 before
        db.close()

    def test_a_flush_hashes_each_key_once(self, hash_calls):
        db, _ = open_split()
        for bucket in split_buckets(db):
            keys = [entry.key for entry in bucket.tree.memory.sorted_entries()]
            hash_calls.clear()
            flushed = bucket.flush()
            assert len(flushed) == len(keys) > 0
            # The Bloom build always made these; the column adds none.
            assert hash_calls == Counter(keys)
        db.close()

    def test_a_merge_hashes_only_the_component_it_builds(self, hash_calls):
        db, _ = open_split()
        total = 0
        for bucket in split_buckets(db):
            hash_calls.clear()
            merged = bucket.tree.merge_all()
            assert merged is not None and bucket.tree.component_count == 1
            assert hash_calls == Counter(entry.key for entry in merged.entries())
            total += len(merged)
        # One call per surviving key (5000 and 5001 are still in memory).
        # Materialising the two references of each bucket used to hash every
        # entry of their targets on top of that: 10,924 calls in all.
        assert total == 2800
        db.close()
