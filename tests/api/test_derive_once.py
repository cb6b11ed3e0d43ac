"""A point operation hashes its key once, at the first layer that needs it.

``hash_key`` is bound by name (``from ..common.hashutil import hash_key``) in
every module that uses it, so the counter below replaces each of those
bindings.  The dataset under test has split: every bucket holds a flushed
component, two reference components and a live memory component, so a probe
that re-hashed per Bloom filter or per reference component would show.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.common.hashutil as hashutil
import repro.bucketed.scan as scan_module
import repro.cluster.partition as partition_module
import repro.lsm.entry as entry_module
import repro.lsm.iterators as iterators_module
import repro.workload.driver as driver_module
from repro.api import (
    KIB,
    BucketingConfig,
    ClusterConfig,
    Database,
    LSMConfig,
    SecondaryIndexSpec,
    WorkloadDriver,
    WorkloadSpec,
)
from repro.bucketed.bucket import Bucket
from repro.bucketed.bucketed_lsm import MaintenanceReport
from repro.chaos import PartitionWindow
from repro.cluster.routing import RoutingSnapshot
from repro.cluster.partition import StoragePartition
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.hashing.extendible import GlobalDirectory
from repro.lsm.bloom import BloomFilter
from repro.lsm.component import DiskComponent
from repro.lsm.entry import estimate_value_size
from repro.lsm.iterators import merge_runs
from repro.lsm.tree import LSMTree
from repro.rebalance.concurrency import LogReplicator

from .test_dataset_batch_verbs import open_split, read_latencies, storage_stats

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
    assert len(bindings) >= 15 and driver_module in bindings
    for module in bindings:
        monkeypatch.setattr(module, "hash_key", counting)
    return calls


@pytest.fixture
def sort_key_calls(monkeypatch):
    """Every ``sort_key`` call's key, over every module binding the function."""
    original = entry_module.sort_key
    calls = []

    def counting(key):
        calls.append(key)
        return original(key)

    bindings = [
        module
        for name, module in sys.modules.items()
        if name.startswith("repro.") and getattr(module, "sort_key", None) is original
    ]
    assert entry_module in bindings and len(bindings) >= 2
    for module in bindings:
        monkeypatch.setattr(module, "sort_key", counting)
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

    def test_reads_inside_a_chaos_partition_window(self, hash_calls):
        db, dataset = open_split()
        db.enable_chaos(partitions=[PartitionWindow(start=0.0, duration=1e9)])
        dataset.get(KEYS[0])  # the window's first read freezes the client's view
        assert db.rebalance(add=1).committed
        misses = []
        db.on("retry.routing_miss", misses.append)
        hash_calls.clear()
        for key in KEYS:
            dataset.get(key)
        dataset.get_many(KEYS)
        # Both views of the window routed on the read's own hash: three
        # calls per read before (read path, stale view, live view).
        assert hash_calls == Counter(KEYS * 2)
        assert misses  # some keys moved, so the stale view routed them away
        db.close()

    def test_delete(self, hash_calls, monkeypatch):
        db, dataset = open_split()
        # The trailing maintenance pass hashes whatever it flushes and merges;
        # that is not the per-key path counted here.
        monkeypatch.setattr(
            StoragePartition, "maintain", lambda self, force_flush=False: MaintenanceReport()
        )
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
        replicate = LogReplicator.write_many

        def counted_write(self, rows):
            before = Counter(hash_calls)
            try:
                return replicate(self, rows)
            finally:
                during_write.update(hash_calls - before)

        monkeypatch.setattr(LogReplicator, "write_many", counted_write)
        # The channel also extracts the key once per write, and the source
        # partition sizes its copy of the row once.
        derived = Counter()

        def counting(name, function):
            def wrapper(*args):
                derived[name] += 1
                return function(*args)

            return wrapper

        # The spec builds its key getter once; count the calls to that getter.
        spec = db.cluster.dataset("t").spec
        monkeypatch.setitem(vars(spec), "primary_key_of", counting("key", spec.primary_key_of))
        monkeypatch.setattr(
            partition_module, "estimate_value_size", counting("size", estimate_value_size)
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


#: Reads of ``open_split()``'s dataset: one key, a run short enough to go key
#: by key (under 16 keys per partition), and a run long enough to go as one.
RUNS = {
    "one": [2790],
    "short": KEYS,
    "long": [key for key in range(-40, 2840, 7)] + [5000, 5001, 9999],
}


class TestCarriedHashes:
    """``get_many(keys, hashes)`` is ``get_many(keys)`` with the hashing done:
    same records, latencies, registry and heat, and no ``hash_key`` call."""

    def read(self, keys, carry):
        db, dataset = open_split()
        db.start_trace()
        heat = db.cluster.heat
        heated = []
        record_read = heat.record_read

        def recording(name, hashed):
            heated.append(hashed)
            record_read(name, hashed)

        heat.record_read = recording
        samples = read_latencies(db)
        before = storage_stats(db)
        hashes = list(map(hashutil.hash_key, keys)) if carry else None
        records = dataset.get_many(keys, hashes=hashes)
        outcome = (records, samples, storage_stats(db).diff(before), db.metrics.snapshot())
        db.close()
        return outcome, heated

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_carried_hashes_read_as_the_keys_do(self, run):
        keys = RUNS[run]
        hashed, heated = self.read(keys, carry=False)
        carried, carried_heat = self.read(keys, carry=True)
        assert carried == hashed
        assert carried_heat == heated == list(map(hashutil.hash_key, keys))
        records, samples, delta, _ = carried
        assert len(samples) == len(keys) and any(records) and delta.components_opened > 0

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_carried_hashes_make_no_hash_call(self, run, hash_calls):
        keys = RUNS[run]
        db, dataset = open_split()
        hashes = list(map(hashutil.hash_key, keys))
        hash_calls.clear()
        dataset.get_many(keys, hashes=hashes)
        assert not hash_calls
        db.close()

    def test_a_read_only_driver_run_hashes_each_drawn_key_once(self, hash_calls):
        db = Database(ClusterConfig(num_nodes=2, partitions_per_node=2))
        spec = WorkloadSpec(dataset="t", initial_records=3000, mix="C", default_ops=6000)
        driver = WorkloadDriver(db, spec)
        driver.prepare()
        hash_calls.clear()
        report = driver.run()
        assert report.phases[0].reads == 6000
        # Zipfian draws repeat their hot keys; each was hashed once (once per
        # read before the driver kept its keys' hashes).
        assert set(hash_calls.values()) == {1}
        assert 100 < len(hash_calls) < 3000
        db.close()


def split_buckets(db):
    """Every primary bucket of ``open_split()``'s dataset."""
    runtime = db.cluster.dataset("t")
    return [b for p in runtime.partitions.values() for b in p.primary.buckets()]


class TestNoHashPerStoredRecord:
    """A disk component holds the hash of each of its keys; reads through the
    reference components of a split dataset filter on that column and every
    build takes its column from where the records came from.  No
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

    def test_a_flush_hashes_nothing(self, hash_calls):
        db, _ = open_split()
        for bucket in split_buckets(db):
            keys = [entry.key for entry in bucket.tree.memory.sorted_entries()]
            hash_calls.clear()
            flushed = bucket.flush()
            assert len(flushed) == len(keys) > 0
            # The feed routed every one of these keys on its hash, and the
            # memory component kept it (one call per key before).
            assert not hash_calls
            assert list(flushed._hashes) == [hashutil.hash_key(key) for key in flushed._keys]
        db.close()

    def test_a_merge_hashes_nothing(self, hash_calls):
        db, _ = open_split()
        total = 0
        for bucket in split_buckets(db):
            hash_calls.clear()
            merged = bucket.tree.merge_all()
            assert merged is not None and bucket.tree.component_count == 1
            # The inputs' columns (the references' filtered slices of them)
            # are carried into the merged component: 2,800 calls before, one
            # per surviving key, and 10,924 before the columns existed.
            assert not hash_calls
            assert list(merged._hashes) == [hashutil.hash_key(key) for key in merged._keys]
            total += len(merged)
        assert total == 2800  # 5000 and 5001 are still in memory
        db.close()


class TestOneHashPerRecordLifetime:
    """A key is hashed when it enters the system — by the feed, to route it —
    and never again: not by the flush that writes it out, not by any merge or
    split it lives through, not by a bucket move."""

    def test_bulk_ingest_hashes_each_row_once(self, hash_calls):
        db, dataset = open_split()
        rows = [{"k": key, "v": "z" * 64} for key in range(10_000, 34_000)]
        before, buckets_before = storage_stats(db), len(split_buckets(db))
        hash_calls.clear()
        dataset.insert(rows)
        # 178,425 calls before: every flush and every merge hashed each key it
        # wrote (7.4 calls per ingested row).
        assert hash_calls == Counter(row["k"] for row in rows)
        work = storage_stats(db).diff(before)
        assert work.flush_count > 100 and work.merge_count > 50
        assert len(split_buckets(db)) >= 4 * buckets_before  # two splits each
        db.close()

    def test_a_rebalance_hashes_no_moved_record(self, hash_calls):
        db, dataset = open_split()
        hash_calls.clear()
        for resize in ({"add": 1}, {"remove": 1}):
            report = db.rebalance(**resize)
            assert report.committed
            assert sum(r.records_moved for r in report.dataset_reports) > 500
        # Scanning a snapshot reads the components' columns and the received
        # bucket is loaded with them (one call per moved record before, on
        # top of one per record of every flush the snapshot forced).
        assert not hash_calls
        assert len(list(dataset.scan())) == 2802
        db.close()

    def test_single_row_writes_with_their_maintenance_pass(self, hash_calls):
        db, dataset = open_split()
        hash_calls.clear()
        for key in KEYS:
            dataset.upsert([{"k": key, "v": "w" * 64}])
        assert hash_calls == Counter(KEYS)
        hash_calls.clear()
        for key in KEYS:
            dataset.delete(key)
        assert hash_calls == Counter(KEYS)
        db.close()


class TestBulkIngestDerivesEachColumnOnce:
    """A bulk ingest of n rows in batches of b travels as columns: it hashes
    and sizes each row once and routes each batch with one
    ``partitions_of_hashes`` call, ⌈n/b⌉ in all, with no per-row routing
    call (``GlobalDirectory.lookup_hash``)."""

    @pytest.mark.parametrize("batch_size", [1, 7, 200, 600, 900])
    def test_one_hash_one_size_per_row_and_one_route_per_batch(
        self, hash_calls, monkeypatch, batch_size
    ):
        db, dataset = open_split()
        calls = Counter()

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            RoutingSnapshot,
            "partitions_of_hashes",
            counting("route", RoutingSnapshot.partitions_of_hashes),
        )
        monkeypatch.setattr(
            GlobalDirectory, "lookup_hash", counting("lookup_hash", GlobalDirectory.lookup_hash)
        )
        monkeypatch.setattr(
            partition_module, "estimate_value_size", counting("size", estimate_value_size)
        )
        rows = [{"k": key, "v": "z" * 64} for key in range(10_000, 10_600)]
        hash_calls.clear()
        report = dataset.insert(rows, batch_size=batch_size)
        assert report.records == len(rows)
        assert hash_calls == Counter(row["k"] for row in rows)
        assert calls == {"size": len(rows), "route": -(-len(rows) // batch_size)}
        db.close()


@pytest.fixture
def bloom_builds(monkeypatch):
    """The key count of every ``BloomFilter.build`` call."""
    built = []
    build = BloomFilter.build.__func__

    def counting(cls, keys, *args, **kwargs):
        built.append(len(keys))
        return build(cls, keys, *args, **kwargs)

    monkeypatch.setattr(BloomFilter, "build", classmethod(counting))
    return built


#: Keys ``open_single_run()`` never stores: a read of them misses every
#: bucket's component, so it is what asks (and builds) the filters.
ABSENT = list(range(10_000, 14_000))


def open_single_run():
    """A split dataset whose every bucket holds one real disk component and
    nothing in memory, each component's filter built by a read of keys it
    lacks (a read of a key it holds never asks the filter)."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=16 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=24 * KIB),
        )
    )
    dataset = db.create_dataset("t", primary_key="k")
    keys = list(range(1200))
    dataset.insert([{"k": key, "v": "x" * 64} for key in keys])
    for bucket in split_buckets(db):
        bucket.flush()
        # One merge of the whole list, a lone reference component included.
        bucket.tree._merge_range(0, bucket.tree.component_count)
        assert [type(c) for c in bucket.tree.disk_components] == [DiskComponent]
    assert all(dataset.get_many(keys))
    assert not any(b.tree.disk_components[0]._bloom for b in split_buckets(db))
    assert not any(dataset.get_many(ABSENT))
    assert all(b.tree.disk_components[0]._bloom for b in split_buckets(db))
    return db, dataset, keys


class TestMovedBucketsBuildTheirOwnFilters:
    """A bucket move carries its components' key-hash column, not a Bloom
    filter: the loaded component builds its filter from that column once, on
    its first probe that misses, as every component does.  Reads of present
    keys build nothing, and every key reads as it did at the source."""

    @pytest.mark.parametrize("change", ["none", "tombstone", "newer_run"])
    def test_a_moved_component_builds_its_filter_on_its_first_miss(
        self, bloom_builds, hash_calls, change
    ):
        db, dataset, keys = open_single_run()
        buckets = split_buckets(db)
        if change == "tombstone":
            # One tombstone per bucket: the move's snapshot reconciles it away.
            dataset.delete([bucket.tree.disk_components[0].min_key for bucket in buckets])
        elif change == "newer_run":
            fresh = [
                next(k for k in range(5000, 6000) if bucket.bucket_id.contains_key(k))
                for bucket in buckets
            ]
            db.cluster.feed("t").ingest([{"k": key, "v": "y"} for key in fresh], maintain=False)
            keys = keys + fresh
        present = [key for key, row in zip(keys, dataset.get_many(keys)) if row is not None]
        answers = dataset.get_many(keys + ABSENT)
        bloom_builds.clear()
        hash_calls.clear()
        report = db.rebalance(add=1)
        moved = sum(r.buckets_moved for r in report.dataset_reports)
        assert moved > 1
        assert not hash_calls  # the move re-hashes no key
        assert all(dataset.get_many(present))
        assert bloom_builds == []  # a hit never asks the filter
        assert dataset.get_many(keys + ABSENT) == answers
        assert len(bloom_builds) == moved
        assert sum(bloom_builds) == sum(r.records_moved for r in report.dataset_reports)
        assert not any(dataset.get_many(ABSENT))
        assert len(bloom_builds) == moved  # once per moved component
        db.close()


class TestReconcileRunAtATime:
    """Scans, merges and bucket moves reconcile their sorted runs with one
    stable sort over the components' key columns: no heap, and no per-entry
    ``sort_key`` call — only range bounds are normalised, by bisection."""

    def test_full_scans_call_sort_key_for_no_stored_entry(self, sort_key_calls):
        db, dataset = open_split()
        buckets = split_buckets(db)
        trees = [bucket.tree for bucket in buckets]
        assert all(len(tree.memory) and tree.component_count == 3 for tree in trees)
        sort_key_calls.clear()
        assert sum(len(list(tree.scan())) for tree in trees) == 2802
        partitions = db.cluster.dataset("t").partitions.values()
        assert sum(len(list(p.primary.scan())) for p in partitions) == 2802
        assert sum(len(list(p.primary.scan(ordered=True))) for p in partitions) == 2802
        assert len(list(dataset.scan(ordered=True))) == 2802
        # 2,802 entries behind four runs per bucket, four times over: every
        # one of them went through sort_key (twice, for the ordered scans)
        # when a heap reconciled them.
        assert not sort_key_calls
        db.close()

    def test_a_bounded_scan_calls_sort_key_for_its_bounds_only(self, sort_key_calls):
        db, dataset = open_split()
        runs = sum(1 + bucket.tree.component_count for bucket in split_buckets(db))
        calls_for = {}
        for span in (30, 300, 2400):
            sort_key_calls.clear()
            assert len(list(dataset.scan(low=100, high=100 + span - 1))) == span
            calls_for[span] = len(sort_key_calls)
            # Two bounds bisected in each sorted run of at most ~700 keys.
            assert 0 < calls_for[span] <= runs * 2 * 12
        # 80x the entries scanned, the same bisections (to within the few
        # probes a bound's position moves a bisection by).
        assert calls_for[2400] <= calls_for[30] + runs * 2 * 2
        db.close()

    def test_no_heap_behind_the_scan_modules(self):
        for module in (iterators_module, scan_module):
            source = Path(module.__file__).read_text()
            assert "heapq" not in source, module.__name__


def open_indexed():
    """An empty dataset on ``open_split()``'s configuration with a covering
    secondary index, whose entry keys are ``(day, k)`` tuples."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        )
    )
    dataset = db.create_dataset(
        "t", primary_key="k", secondary_indexes=[SecondaryIndexSpec("by_day", ("day",), ("v",))]
    )
    return db, dataset


def indexed_rows(keys):
    return [
        {"k": key, "day": f"1995-{key % 12 + 1:02d}-{key % 28 + 1:02d}", "v": "x" * 64}
        for key in keys
    ]


def secondary_trees(db):
    return [p.secondary_indexes["by_day"] for p in db.cluster.dataset("t").partitions.values()]


def secondary_key_calls(calls):
    """The ``hash_key`` calls made on secondary entry keys (tuples here)."""
    return {key: count for key, count in calls.items() if isinstance(key, tuple)}


class TestSecondaryKeysAreNeverHashed:
    """Nothing probes a secondary index by key, so nothing reads its
    components' hash columns: a flush, a merge and a rebalance's received
    lists build their components without one, and no secondary key is
    hashed.  (Before, each of them hashed every key it wrote.)"""

    def test_a_bulk_ingest_hashes_each_row_once(self, hash_calls):
        db, dataset = open_indexed()
        rows = indexed_rows(range(2800))
        hash_calls.clear()
        dataset.insert(rows, batch_size=32)
        assert hash_calls == Counter(row["k"] for row in rows)
        work = [tree.stats for tree in secondary_trees(db)]
        assert all(stats.flush_count > 1 and stats.merge_count > 0 for stats in work)
        db.close()

    def test_a_flush_and_a_merge_hash_nothing(self, hash_calls):
        db, dataset = open_indexed()
        dataset.insert(indexed_rows(range(2800)), batch_size=32)
        dataset.insert(indexed_rows(range(2800, 3000)), batch_size=32)
        for tree in secondary_trees(db):
            assert len(tree.memory) > 0 and tree.component_count > 0
            hash_calls.clear()
            flushed = tree.flush()
            merged = tree.merge_all()
            assert not hash_calls
            assert flushed._column is None and merged._column is None
        db.close()

    def test_a_rebalance_hashes_no_secondary_key(self, hash_calls, monkeypatch):
        db, dataset = open_indexed()
        dataset.insert(indexed_rows(range(2800)), batch_size=32)
        received = []
        append = LSMTree.append_to_received_list

        def recording(tree, list_id, entries, hashed=None):
            component = append(tree, list_id, entries, hashed)
            received.append(component)
            return component

        monkeypatch.setattr(LSMTree, "append_to_received_list", recording)
        hash_calls.clear()
        for resize in ({"add": 1}, {"remove": 1}):
            report = db.rebalance(**resize)
            assert report.committed
        # Each move received its bucket's secondary entries as one component.
        assert len(received) >= sum(r.buckets_moved for r in report.dataset_reports) > 0
        assert not secondary_key_calls(hash_calls)
        assert all(component._column is None for component in received)
        assert len(list(dataset.scan())) == 2800
        db.close()


class TestAColumnIsDerivedOnce:
    """A component built without its hash column derives it on the first
    read that needs it — a Bloom build, a bucket move — and keeps it."""

    def test_the_first_bloom_build_derives_the_column_and_the_next_read_nothing(
        self, hash_calls
    ):
        db, dataset = open_indexed()
        dataset.insert(indexed_rows(range(2800)), batch_size=32)
        for tree in secondary_trees(db):
            component = tree.disk_components[-1]
            absent = ("0000-00-00", -1)
            hashed = hashutil.hash_key(absent)
            assert component._column is None
            hash_calls.clear()
            component.may_contain(absent, hashed)
            # Hashing a tuple hashes its parts too; count the keys' own calls.
            assert secondary_key_calls(hash_calls) == Counter(component._keys)
            hash_calls.clear()
            component.may_contain(absent, hashed)
            component.hashed_entries()
            assert not hash_calls
        db.close()

    def test_a_move_derives_the_column_once(self, hash_calls):
        bucket = Bucket(ROOT_BUCKET)
        keys = list(range(40, 0, -1))
        for key in keys:
            bucket.tree.insert(key, "row")  # written without their hashes
        component = bucket.flush()
        assert component._column is None
        for derived in (keys, []):
            hash_calls.clear()
            snapshot = bucket.snapshot_components()
            entries, hashed = merge_runs(
                [c.hashed_entries() for c in snapshot], drop_tombstones=True
            )
            Bucket.release_snapshot(snapshot)
            assert hash_calls == Counter(derived)
            assert hashed == component._column
            assert list(hashed) == list(map(hashutil.hash_key, sorted(keys)))
