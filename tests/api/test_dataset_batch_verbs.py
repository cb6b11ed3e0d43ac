"""Tests for the batched dataset verbs ``get_many`` / ``upsert_each`` (PR 4).

Both verbs promise *observational equivalence* with their looped
counterparts: the same results, the same per-op simulated latencies, and the
same registry state — the only difference is that samples travel as one
``op.batch`` event.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key
from repro.lsm.component import DiskComponent, ReferenceDiskComponent
from repro.lsm.stats import StorageStats


def partition_of(routing, key):
    """The partition a routing snapshot sends ``key`` to."""
    (pid,) = routing.partitions_of_hashes([hash_key(key)])
    return pid


def open_loaded(rows=300, strategy="dynahash"):
    db = Database(
        ClusterConfig(num_nodes=3, partitions_per_node=2, strategy=strategy)
    )
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": i, "v": f"value-{i}"} for i in range(rows)])
    return db, dataset


class TestGetMany:
    def test_results_match_looped_get(self):
        db_a, ds_a = open_loaded()
        looped = [ds_a.get(key) for key in range(0, 300, 3)]
        db_b, ds_b = open_loaded()
        batched = ds_b.get_many(list(range(0, 300, 3)))
        assert batched == looped
        db_a.close()
        db_b.close()

    def test_registry_state_matches_looped_get(self):
        keys = [1, 5, 250, 9999, 42, 42]  # includes a miss and a repeat
        db_a, ds_a = open_loaded()
        for key in keys:
            ds_a.get(key)
        db_b, ds_b = open_loaded()
        ds_b.get_many(keys)
        assert db_b.metrics.snapshot() == db_a.metrics.snapshot()
        db_a.close()
        db_b.close()

    def test_modulo_routed_dataset_matches_looped_get(self):
        keys = [1, 5, 250, 9999, 42, 42]
        db_a, ds_a = open_loaded(strategy="hashing")
        assert db_a.cluster.dataset("t").routing_mode == "modulo"
        looped = [ds_a.get(key) for key in keys]
        db_b, ds_b = open_loaded(strategy="hashing")
        assert ds_b.get_many(keys) == looped
        assert [r and r["k"] for r in looped] == [1, 5, 250, None, 42, 42]
        assert db_b.metrics.snapshot() == db_a.metrics.snapshot()
        db_a.close()
        db_b.close()

    def test_empty_batch_emits_nothing(self):
        db, dataset = open_loaded(10)
        before = db.metrics.snapshot()
        assert dataset.get_many([]) == []
        assert db.metrics.snapshot() == before
        db.close()


def open_split():
    """A dataset that has split: every bucket holds a flushed component on top
    of two reference components, plus a live memory component."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        )
    )
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": i, "v": "x" * 64} for i in range(2800)], batch_size=32)
    runtime = db.cluster.dataset("t")
    for partition in runtime.partitions.values():
        partition.primary.flush_all()
    # Overwrites and fresh keys that stay in memory (no maintenance pass, so
    # nothing merges the references away).
    newer = [{"k": i, "v": "y" * 64} for i in list(range(0, 2800, 35)) + [5000, 5001]]
    db.cluster.feed("t").ingest(newer, maintain=False)
    for partition in runtime.partitions.values():
        for bucket in partition.primary.buckets():
            kinds = [type(component) for component in bucket.tree.disk_components]
            assert kinds == [DiskComponent, ReferenceDiskComponent, ReferenceDiskComponent]
            assert len(bucket.tree.memory) > 0
    return db, dataset


def storage_stats(db):
    """StorageStats summed over every partition of dataset ``t``."""
    total = StorageStats()
    for partition in db.cluster.dataset("t").partitions.values():
        total.add(partition.stats_snapshot())
    return total


def read_latencies(db):
    """Collect every ``op.read`` latency sample, single or batched, in order."""
    samples = []
    db.on("op.read", lambda event: samples.append(event["latency_seconds"]))
    db.on(
        "op.batch",
        lambda event: samples.extend(event["latencies"]) if event["op"] == "read" else None,
    )
    return samples


#: Memory hits (35, 5000), flushed hits (2790), reference hits (3, 1234),
#: misses (9999, -4), repeats, and a non-int miss.
SPLIT_KEYS = [35, 3, 2790, 9999, 1234, 5000, 3, -4, 2799, 70, 1, "absent", 2451, 35]


class TestSplitDatasetEquivalence:
    """Looped ``get``, ``get_many`` and traced ``get_many`` are one read path."""

    def run(self, how):
        db, dataset = open_split()
        if how == "traced":
            db.start_trace()
            assert db.cluster.heat is not None
        samples = read_latencies(db)
        before = storage_stats(db)
        if how == "looped":
            records = [dataset.get(key) for key in SPLIT_KEYS]
        else:
            records = dataset.get_many(SPLIT_KEYS)
        delta = storage_stats(db).diff(before)
        snapshot = db.metrics.snapshot()
        heat = db.cluster.heat.read_heat() if how == "traced" else None
        db.close()
        return records, samples, delta, snapshot, heat

    def test_records_latencies_and_storage_stats_are_identical(self):
        looped = self.run("looped")
        batched = self.run("batched")
        traced = self.run("traced")
        assert looped[:4] == batched[:4] == traced[:4]
        records, samples, delta, _, heat = traced
        assert [r and r["v"][0] for r in records] == [
            "y", "x", "x", None, "x", "y", "x", None, "x", "y", "x", None, "x", "y",
        ]
        # Latencies are exact floats, and they differ with the probe's depth.
        assert len(samples) == len(SPLIT_KEYS)
        assert len(set(samples)) > 1
        assert delta.records_read == sum(r is not None for r in records)
        assert delta.components_opened > 0
        assert delta.bloom_negative_skips > 0
        # Every read heated the bucket that owns its key.
        assert sum(count for _, _, count in heat) == len(SPLIT_KEYS)

    def test_delete_matches_the_partition_path_key_by_key(self):
        keys = [35, 3, 2790, 9999, 3, 5000, -4]  # present, absent, repeated
        db_a, ds_a = open_split()
        before_a = storage_stats(db_a)
        report = ds_a.delete(keys)
        # The same verb spelled through the partition API key by key: one
        # read of each distinct key, then one tombstone row per key.
        db_b, ds_b = open_split()
        before_b = storage_stats(db_b)
        runtime = db_b.cluster.dataset("t")
        deleted = 0
        for key in dict.fromkeys(keys):
            deleted += runtime.partitions[runtime.partition_of_key(key)].lookup(key) is not None
        for key in keys:
            partition = runtime.partitions[runtime.partition_of_key(key)]
            partition.insert_many([key], [hash_key(key)], None)
        for partition in runtime.partitions.values():
            partition.maintain()
        assert (report.keys_requested, report.records_deleted) == (len(keys), deleted) == (7, 4)
        assert storage_stats(db_a).diff(before_a) == storage_stats(db_b).diff(before_b)
        assert ds_a.get_many(keys) == ds_b.get_many(keys) == [None] * len(keys)
        assert ds_a.count() == ds_b.count() == 2802 - 4
        db_a.close()
        db_b.close()

    def test_traced_delete_is_identical(self):
        keys = [35, 9999, 2790, 35]
        outcomes = []
        for traced in (False, True):
            db, dataset = open_split()
            if traced:
                db.start_trace()
            samples = []
            db.on("op.delete", lambda event, into=samples: into.append(event["latency_seconds"]))
            before = storage_stats(db)
            report = dataset.delete(keys)
            outcomes.append((report, samples, storage_stats(db).diff(before)))
            db.close()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].records_deleted == 2


class TestUpsertEach:
    def test_storage_and_registry_match_looped_upsert(self):
        rows = [{"k": i, "v": f"new-{i}"} for i in range(40, 80)]
        db_a, ds_a = open_loaded()
        for row in rows:
            ds_a.upsert([row], batch_size=1)
        db_b, ds_b = open_loaded()
        reports = ds_b.upsert_each(rows)
        assert db_b.metrics.snapshot() == db_a.metrics.snapshot()
        assert len(reports) == len(rows)
        assert all(report.records == 1 for report in reports)
        # The data landed: spot-check a rewritten row.
        assert ds_b.get(41)["v"] == "new-41"
        db_a.close()
        db_b.close()

    def test_empty_batch_returns_no_reports(self):
        db, dataset = open_loaded(10)
        before = db.metrics.snapshot()
        assert dataset.upsert_each([]) == []
        assert db.metrics.snapshot() == before
        db.close()


class TestEmitSkipsWithoutSubscribers:
    def test_detached_registry_skips_op_payloads(self):
        db, dataset = open_loaded(20)
        db.metrics.detach()
        seen = []
        # No op.* subscriber is left; the emit fast path skips entirely, so
        # the next subscriber's first event keeps a contiguous seq stream.
        dataset.get(1)
        db.on("op.*", seen.append)
        dataset.get(2)
        assert len(seen) == 1
        db.close()

    def test_get_results_unaffected_by_skipped_emission(self):
        db, dataset = open_loaded(20)
        db.metrics.detach()
        assert dataset.get(3) is not None
        assert dataset.get(9999) is None
        db.close()


def probe_by_key(partition, key, hashed):
    """One key probed alone on ``partition``: its owning local bucket's tree
    answers with ``LSMTree.get_entry``; a bucket that is not local is a miss
    that opens nothing.  Returns the live record (``None`` when absent or
    deleted) and the disk components the probe opened."""
    bucket_id = partition.primary.directory.try_bucket_for_hash(hashed)
    if bucket_id is None:
        return None, 0
    tree = partition.primary.bucket(bucket_id).tree
    before = tree.stats.components_opened
    entry = tree.get_entry(key, hashed)
    opened = tree.stats.components_opened - before
    return (None if entry is None or entry.tombstone else entry.value), opened


def get_many_by_key(dataset, keys):
    """``get_many`` as a per-key loop: each key is hashed, routed on the live
    directory and probed alone (:func:`probe_by_key`), priced from its own
    open count, and the latencies travel as one ``op.batch``."""
    runtime = dataset._runtime()
    records, latencies = [], []
    for key in keys:
        hashed = hash_key(key)
        partition = runtime.partitions[runtime.partition_of_key(key, hashed)]
        partition._check_not_blocked()
        record, opened = probe_by_key(partition, key, hashed)
        records.append(record)
        latencies.append(dataset._probe_latency(opened))
    dataset._emit_op_batch("read", latencies)
    return records


def open_moved():
    """The split dataset with tombstones, after a DynaHash scale-out: moved
    buckets are gone from their old partitions (whose primary-key indexes
    now hide them behind lazy-cleanup filters), and the routing copy taken
    before the move still points at the old owners."""
    db, dataset = open_split()
    dataset.delete(TOMBSTONED)
    stale = db.cluster.dataset("t").routing_snapshot()
    assert db.rebalance(add=1).committed
    return db, dataset, stale, read_latencies(db)


#: Keys deleted before the move (tombstones in memory or on disk).
TOMBSTONED = [3, 35, 1234, 2790, 2799, 5000]

#: Keys worth drawing often: memory hits, reference hits, tombstones, misses
#: and a non-int miss (the drawn integers reach the moved buckets' keys too).
NOTABLE_KEYS = TOMBSTONED + [0, 1, 70, 2451, 5001, 9999, -4, "absent"]


@pytest.fixture(scope="module")
def moved_pair():
    """Two identical moved datasets: one answers through the per-key oracles,
    the other through the run path, in the same sequence, so their counters
    and registries must stay equal."""
    pair = open_moved(), open_moved()
    yield pair
    for db, *_ in pair:
        db.close()


#: Runs of every length class: one to three keys (every bucket tree takes
#: fewer keys than ``LSMTree.get_many``'s short-run cut), short runs of 4-20
#: (a tree may take a few keys or several) and long runs (the moved dataset
#: has 6 partitions).
_key = st.one_of(st.sampled_from(NOTABLE_KEYS), st.integers(min_value=-20, max_value=5100))
keys_runs = st.one_of(
    st.lists(_key, min_size=1, max_size=3),
    st.lists(_key, min_size=4, max_size=20),
    st.lists(_key, min_size=96, max_size=300),
)


class TestRunPathEquivalence:
    """``get_many``'s run path against the per-key chain it replaced, on every
    layer: records, per-key latencies, ``StorageStats`` deltas and the
    registry snapshot."""

    @given(keys=keys_runs)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_get_many_equals_the_per_key_loop(self, moved_pair, keys):
        (db_a, ds_a, _, samples_a), (db_b, ds_b, _, samples_b) = moved_pair
        before_a, before_b = storage_stats(db_a), storage_stats(db_b)
        del samples_a[:], samples_b[:]
        looped = get_many_by_key(ds_a, keys)
        batched = ds_b.get_many(keys)
        assert batched == looped
        assert samples_b == samples_a and len(samples_b) == len(keys)
        assert storage_stats(db_b).diff(before_b) == storage_stats(db_a).diff(before_a)
        assert db_b.metrics.snapshot() == db_a.metrics.snapshot()
        assert all(looped[i] is None for i, key in enumerate(keys) if key in TOMBSTONED)

    @given(keys=keys_runs)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_a_stale_probe_equals_the_per_key_lookup(self, moved_pair, keys):
        (db_a, _, stale, _), (db_b, _, _, _) = moved_pair
        partitions_a = db_a.cluster.dataset("t").partitions
        partitions_b = db_b.cluster.dataset("t").partitions
        for pid in sorted({partition_of(stale, key) for key in keys}):
            mine = [key for key in keys if partition_of(stale, key) == pid]
            hashes = [hash_key(key) for key in mine]
            a, b = partitions_a[pid], partitions_b[pid]
            before_a, before_b = a.stats_snapshot(), b.stats_snapshot()
            looped = [probe_by_key(a, key, hashed) for key, hashed in zip(mine, hashes)]
            records, opened = b.lookup_many(mine, hashes)
            assert list(zip(records, opened)) == looped
            assert b.stats_snapshot().diff(before_b) == a.stats_snapshot().diff(before_a)

    @given(key=_key)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_get_equals_a_one_key_get_many(self, moved_pair, key):
        (db_a, ds_a, _, samples_a), (db_b, ds_b, _, samples_b) = moved_pair
        before_a, before_b = storage_stats(db_a), storage_stats(db_b)
        del samples_a[:], samples_b[:]
        assert ds_a.get(key) == ds_b.get_many([key])[0]
        assert samples_a == samples_b and len(samples_a) == 1
        assert storage_stats(db_a).diff(before_a) == storage_stats(db_b).diff(before_b)
        assert db_a.metrics.snapshot() == db_b.metrics.snapshot()

    @given(keys=keys_runs)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_an_invalidated_index_hides_moved_keys_alike(self, moved_pair, keys):
        (db_a, *_), (db_b, *_) = moved_pair
        hashes = [hash_key(key) for key in keys]
        runtime_a, runtime_b = db_a.cluster.dataset("t"), db_b.cluster.dataset("t")
        filtered = 0
        for pid, partition in runtime_b.partitions.items():
            tree_a = runtime_a.partitions[pid].primary_key_index
            tree_b = partition.primary_key_index
            filtered += bool(tree_b.invalidated_buckets)
            before_a, before_b = tree_a.stats.snapshot(), tree_b.stats.snapshot()
            looped = []
            for key, hashed in zip(keys, hashes):
                opened = tree_a.stats.components_opened
                entry = tree_a.get_entry(key, hashed)
                looped.append((entry, tree_a.stats.components_opened - opened))
            entries, opened = tree_b.get_many(keys, hashes)
            assert list(zip(entries, opened)) == looped
            assert tree_b.stats.diff(before_b) == tree_a.stats.diff(before_a)
        assert filtered  # the scale-out left lazy-cleanup filters behind

    @pytest.mark.parametrize("length", [1, 3, 40, 300])
    def test_a_run_touching_a_blocked_partition_raises_before_any_probe(self, length):
        db, dataset = open_split()
        runtime = db.cluster.dataset("t")
        keys = list(range(length))
        blocked = runtime.partitions[runtime.partition_of_key(keys[-1])]
        blocked.block()
        before = storage_stats(db)
        snapshot = db.metrics.snapshot()
        with pytest.raises(StorageError, match="blocked"):
            dataset.get_many(keys)
        assert storage_stats(db).diff(before) == StorageStats()
        assert db.metrics.snapshot() == snapshot
        blocked.unblock()
        assert len(dataset.get_many(keys)) == length
        db.close()


class TestRefusedCallsCreditNoHeat:
    """Every partition a read run or a feed batch touches is checked for a
    block before the heat hook sees any key, so a refused run or batch
    credits no bucket heat.  Each call here is one run or one batch; an
    insert refused at a later batch keeps the heat of the batches before it
    (``tests/cluster/test_feed_batching.py::TestBlockedBatch``)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda dataset: dataset.get(5),
            lambda dataset: dataset.get_many([1, 2, 5]),
            lambda dataset: dataset.get_many(list(range(200))),
            lambda dataset: dataset.insert([{"k": key, "v": "w"} for key in range(50)]),
        ],
        ids=["get", "short-run", "long-run", "insert"],
    )
    def test_a_refused_run_or_batch_heats_nothing(self, call):
        db, dataset = open_loaded()
        db.start_trace()
        heat = db.cluster.heat
        runtime = db.cluster.dataset("t")
        blocked = runtime.partitions[runtime.partition_of_key(5)]
        blocked.block()
        with pytest.raises(StorageError, match="blocked"):
            call(dataset)
        assert heat.read_heat() == heat.write_heat() == ()
        blocked.unblock()
        call(dataset)
        assert heat.read_heat() or heat.write_heat()
        db.close()


class TestHashesColumn:
    """``get_many(keys, hashes=...)`` takes one hash per key or none."""

    @pytest.mark.parametrize(
        "length, given",
        [(1, 0), (3, 2), (300, 299)],
        ids=["one-key", "short-run", "long-run"],
    )
    def test_a_hashes_column_of_another_length_raises_before_any_hook(self, length, given):
        db, dataset = open_split()
        db.start_trace()
        keys = list(range(length))
        before = storage_stats(db)
        snapshot = db.metrics.snapshot()
        with pytest.raises(ValueError, match=f"{given} hashes for {length} keys"):
            dataset.get_many(keys, hashes=[hash_key(key) for key in keys[:given]])
        assert storage_stats(db).diff(before) == StorageStats()
        assert db.metrics.snapshot() == snapshot
        assert not db.cluster.heat.read_heat()
        assert all(dataset.get_many(keys, hashes=[hash_key(key) for key in keys]))
        assert db.cluster.heat.read_heat()
        db.close()


def open_tiny_split(rows=2000):
    """An int-keyed dataset split many times over (2 KiB memory components,
    4 KiB bucket cap): its reads meet many real and reference components."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=2 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=4 * KIB),
        )
    )
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": i, "v": i} for i in range(rows)])
    return db, dataset


class TestKeysNoStoredKeyOrdersAgainst:
    """A string key among int keys equals none of them: every read path
    answers it as a miss, whether or not a Bloom filter lets it reach the
    sorted run."""

    STRAYS = [f"s{i}" for i in range(3000)]

    def test_get_and_get_many_miss(self):
        db, dataset = open_tiny_split()
        assert [dataset.get(key) for key in self.STRAYS] == [None] * len(self.STRAYS)
        assert dataset.get_many(self.STRAYS[:400]) == [None] * 400
        assert dataset.get_many([7, "s7"]) == [{"k": 7, "v": 7}, None]
        db.close()

    def test_the_write_paths_old_value_probe_misses(self):
        db, _ = open_tiny_split()
        trees = [
            bucket.tree
            for partition in db.cluster.dataset("t").partitions.values()
            for bucket in partition.primary.buckets()
        ]
        assert any(
            isinstance(c, ReferenceDiskComponent) for tree in trees for c in tree.disk_components
        )
        for tree in trees:
            assert [tree.peek(key) for key in self.STRAYS[:50]] == [None] * 50
        db.close()
