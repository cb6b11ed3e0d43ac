"""What one single-row write costs the simulator, counted.

The cluster is the 8-partition *fits* shape (4 nodes x 2 partitions, no
splits): a single-row upsert lands on one partition, so it is priced once and
takes no stats snapshot and no per-partition node lookup.  Every partition
runs one maintenance pass after the row's batch.  The feed's trailing sweep
skips them all: within one ingest call a partition is *settled* once its last
pass reported idle and no batch has written to it since, and a pass over a
settled partition would change nothing.  The set ends with the call, because
the previous call's last pass may have left work, so a run of single-row
upserts still pays one pass per partition per row.  A pass over a tree with no
disk components (every tree of this shape) sizes no component and asks no
merge policy.

A delete call runs one maintenance sweep: one pass per partition.

A bulk batch lands a run at a time: one ``LSMTree.insert_many`` per bucket
tree it touches plus one for the primary-key index, per partition.  It writes
no log record: the CC metadata log is the only log, and only a rebalance
appends to it.

A run of point reads is probed the same way: one
``StoragePartition.lookup_many`` per partition it touches and one
``LSMTree.get_many`` per bucket tree, with no key probed on its own.

A delete call is a read run and a write run: one ``lookup_many`` per
partition it touches, then its keys land as tombstone rows, one
``LSMTree.insert_many`` per touched bucket tree, one for the primary-key
index and one per secondary index.
"""

from collections import Counter

import pytest

import repro.hashing.extendible as extendible_module
import repro.lsm.tree as tree_module
from repro.api import (
    KIB,
    BucketingConfig,
    ClusterConfig,
    Database,
    LSMConfig,
    SecondaryIndexSpec,
)
from repro.cluster.controller import SimulatedCluster
from repro.cluster.cost_model import CostModel
from repro.cluster.partition import StoragePartition
from repro.common.hashutil import hash_key
from repro.lsm.component import DiskComponent, ReferenceDiskComponent
from repro.lsm.stats import StorageStats
from repro.lsm.tree import LSMTree
from repro.lsm.wal import LogRecord
from repro.metrics.histogram import LatencyHistogram

PARTITIONS = 8


def counting(counted, name, function):
    """``function``, counting its calls in ``counted[name]``."""

    def wrapper(*args, **kwargs):
        counted[name] += 1
        return function(*args, **kwargs)

    return wrapper


def count_calls(monkeypatch, methods):
    """A counter of calls to each ``(owner, name)`` method, by name."""
    counted = Counter()
    for owner, name in methods:
        monkeypatch.setattr(owner, name, counting(counted, name, getattr(owner, name)))
    return counted


@pytest.fixture
def calls(monkeypatch):
    """Calls of every method below, counted by name."""
    counted = count_calls(
        monkeypatch,
        (
            (StoragePartition, "stats_snapshot"),
            (StoragePartition, "maintain"),
            (SimulatedCluster, "node_of_partition"),
            (CostModel, "ingest_work"),
            (StorageStats, "snapshot"),
            (StorageStats, "diff"),
        ),
    )
    monkeypatch.setattr(
        extendible_module, "sorted", counting(counted, "sorted", sorted), raising=False
    )
    return counted


def open_fits():
    db = Database(ClusterConfig(num_nodes=4, partitions_per_node=2), strategy="dynahash")
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": key, "v": "x" * 64} for key in range(2000)])
    assert len(db.cluster.dataset("t").partitions) == PARTITIONS
    return db, dataset


class TestSingleRowUpsert:
    def test_one_upsert(self, calls):
        db, dataset = open_fits()
        calls.clear()
        dataset.upsert([{"k": 7, "v": "y" * 64}], batch_size=1)
        # One pass per partition after the row's batch; every pass is idle,
        # so the trailing sweep has nothing left to visit.  The idle passes
        # build no stats objects and re-sort no directory.
        assert calls == {"maintain": PARTITIONS, "ingest_work": 1}
        db.close()

    def test_the_drivers_batched_upserts(self, calls):
        db, dataset = open_fits()
        rows = [{"k": key, "v": "z" * 64} for key in range(100, 140)]
        calls.clear()
        reports = dataset.upsert_each(rows)
        assert [report.records for report in reports] == [1] * len(rows)
        # Each row is its own feed call, and no call inherits another's
        # settled partitions.
        assert calls == {"maintain": PARTITIONS * len(rows), "ingest_work": len(rows)}
        db.close()

    def test_a_pass_over_a_fits_partition_sizes_no_component(self, monkeypatch):
        # No tree of the fits shape holds a disk component, so a pass asks no
        # merge policy and sizes no disk component.
        db, dataset = open_fits()
        counted = Counter()
        monkeypatch.setattr(
            tree_module,
            "select_components",
            counting(counted, "select_components", tree_module.select_components),
        )
        for component in (DiskComponent, ReferenceDiskComponent):
            size = component.size_bytes.fget
            monkeypatch.setattr(
                component, "size_bytes", property(counting(counted, "size_bytes", size))
            )
        partitions = db.cluster.dataset("t").partitions.values()
        assert all(
            not tree.disk_components
            for partition in partitions
            for tree in [bucket.tree for bucket in partition.primary.buckets()]
            + [partition.primary_key_index]
        )
        reports = [partition.maintain() for partition in partitions]
        assert all(report.idle for report in reports)
        assert counted == {}
        db.close()

    def test_a_row_is_priced_like_before(self):
        # One row, no storage work: its partition's parse time plus the
        # node's network time and the feed's two RPCs.
        db, dataset = open_fits()
        cost = db.cluster.cost
        report = dataset.upsert([{"k": 7, "v": "y" * 64}], batch_size=1)
        expected = (
            cost.ingest_work(1, StorageStats()).total_sec
            + cost.network_time(report.bytes_ingested)
            + cost.rpc_time(2)
        )
        assert report.simulated_seconds == expected
        assert (report.splits, report.flush_bytes, report.merge_bytes) == (0, 0, 0)
        assert sorted(report.per_node_seconds) == ["nc0", "nc1", "nc2", "nc3"]
        db.close()


@pytest.fixture
def passes(monkeypatch):
    """Every ``StoragePartition.maintain`` call as ``(partition id, idle)``,
    in call order."""
    log = []
    maintain = StoragePartition.maintain

    def logged(partition, *args, **kwargs):
        report = maintain(partition, *args, **kwargs)
        log.append((partition.partition_id, report.idle))
        return report

    monkeypatch.setattr(StoragePartition, "maintain", logged)
    return log


class TestTrailingSweep:
    def test_an_exact_multiple_of_the_batch_sweeps_only_unsettled_partitions(self, passes):
        # The split config's 32 KiB memory components: some partitions flush
        # in the last batch's sweep and some do not.
        db = Database(
            ClusterConfig(
                num_nodes=4,
                partitions_per_node=2,
                lsm=LSMConfig(memory_component_bytes=32 * KIB),
                bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
            ),
            strategy="dynahash",
        )
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert([{"k": key, "v": "x" * 64} for key in range(2000)])
        runtime = db.cluster.dataset("t")
        batches, batch_size = 5, 400
        rows = [{"k": key, "v": "w" * 64} for key in range(10_000, 10_000 + batches * batch_size)]
        for at in range(0, len(rows), batch_size):
            batch = rows[at : at + batch_size]
            assert {runtime.partition_of_key(row["k"], hash_key(row["k"])) for row in batch} == set(
                range(PARTITIONS)
            )
        passes.clear()
        dataset.insert(rows, batch_size=batch_size)
        # Every batch writes to every partition, so each batch's sweep visits
        # all of them.  The trailing sweep lands no row and visits only the
        # partitions whose pass after the last batch did some work.
        swept = batches * PARTITIONS
        assert [pid for pid, _ in passes[:swept]] == list(range(PARTITIONS)) * batches
        busy = [pid for pid, idle in passes[swept - PARTITIONS : swept] if not idle]
        assert 0 < len(busy) < PARTITIONS
        assert [pid for pid, _ in passes[swept:]] == busy
        db.close()


@pytest.fixture
def landings(monkeypatch):
    """Calls of the tree-level write methods and ``LogRecord``
    constructions (as ``__init__``), counted by name."""
    return count_calls(
        monkeypatch,
        ((LSMTree, "insert_many"), (LSMTree, "_write"), (LogRecord, "__init__")),
    )


class TestBatchLanding:
    def test_a_batch_lands_one_run_per_bucket_tree(self, landings):
        # The split shape: every partition holds several buckets.
        db = Database(
            ClusterConfig(
                num_nodes=4,
                partitions_per_node=2,
                lsm=LSMConfig(memory_component_bytes=32 * KIB),
                bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
            ),
            strategy="dynahash",
        )
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert([{"k": key, "v": "x" * 64} for key in range(8000)])
        runtime = db.cluster.dataset("t")
        rows = [{"k": key, "v": "w" * 64} for key in range(20_000, 22_000)]
        touched = {}
        for row in rows:
            hashed = hash_key(row["k"])
            partition = runtime.partitions[runtime.partition_of_key(row["k"], hashed)]
            bucket = partition.primary.directory.bucket_for_hash(hashed)
            touched.setdefault(partition.partition_id, set()).add(bucket)
        assert len(touched) == PARTITIONS and all(len(b) > 1 for b in touched.values())
        landings.clear()
        dataset.insert(rows, batch_size=2000)
        # Per partition: one run into each bucket tree its slice touches and
        # one into its primary-key index.  No row is written on its own, and
        # none is logged.
        runs = sum(len(buckets) + 1 for buckets in touched.values())
        assert landings["__init__"] == 0
        assert landings == {"insert_many": runs}
        db.close()


@pytest.fixture
def probes(monkeypatch):
    """Calls of the read path's per-run and per-key probes and of the
    histogram's bucket search, counted by name."""
    return count_calls(
        monkeypatch,
        (
            (StoragePartition, "lookup_many"),
            (StoragePartition, "lookup"),
            (LSMTree, "get_many"),
            (LSMTree, "get_entry"),
            (LatencyHistogram, "_bucket_index"),
        ),
    )


class TestReadRunLanding:
    def test_a_run_probes_once_per_partition_and_bucket_tree(self, probes):
        # The split shape, as above: every partition holds several buckets,
        # and every bucket several disk components under its memory.
        db = Database(
            ClusterConfig(
                num_nodes=4,
                partitions_per_node=2,
                lsm=LSMConfig(memory_component_bytes=32 * KIB),
                bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
            ),
            strategy="dynahash",
        )
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert([{"k": key, "v": "x" * 64} for key in range(8000)])
        runtime = db.cluster.dataset("t")
        keys = [(key * 7919) % 9000 for key in range(256)]  # some absent, some repeated
        touched = {}
        for key in keys:
            hashed = hash_key(key)
            partition = runtime.partitions[runtime.partition_of_key(key, hashed)]
            bucket = partition.primary.directory.bucket_for_hash(hashed)
            touched.setdefault(partition.partition_id, set()).add(bucket)
        assert len(touched) == PARTITIONS and all(len(b) > 1 for b in touched.values())
        latencies = []
        db.on("op.batch", lambda event: latencies.extend(event["latencies"]))
        probes.clear()
        records = dataset.get_many(keys)
        assert sum(record is not None for record in records) > 200
        # One run per partition and one per bucket tree it touches; no key is
        # probed on its own; each distinct latency is placed in the histogram
        # once.
        assert probes["lookup_many"] == len(touched)
        assert probes["get_many"] == sum(len(buckets) for buckets in touched.values())
        assert probes["get_entry"] == probes["lookup"] == 0
        assert 1 < len(set(latencies)) < len(keys)
        assert probes["_bucket_index"] <= len(set(latencies))
        db.close()


@pytest.fixture
def delete_calls(monkeypatch):
    """Calls of the partition's read verbs, its maintenance pass and the
    tree-level write method, counted by name."""
    return count_calls(
        monkeypatch,
        (
            (StoragePartition, "lookup_many"),
            (StoragePartition, "lookup"),
            (StoragePartition, "maintain"),
            (LSMTree, "insert_many"),
        ),
    )


class TestDeleteLanding:
    def test_a_delete_reads_once_and_lands_one_run_per_tree(self, delete_calls):
        # The split shape, as above, with one secondary index.
        db = Database(
            ClusterConfig(
                num_nodes=4,
                partitions_per_node=2,
                lsm=LSMConfig(memory_component_bytes=32 * KIB),
                bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
            ),
            strategy="dynahash",
        )
        dataset = db.create_dataset(
            "t", primary_key="k", secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))]
        )
        dataset.insert([{"k": key, "c": key % 7, "v": "x" * 64} for key in range(8000)])
        runtime = db.cluster.dataset("t")
        keys = [(key * 7919) % 9000 for key in range(256)]  # some absent, some repeated
        touched = {}
        for key in keys:
            hashed = hash_key(key)
            partition = runtime.partitions[runtime.partition_of_key(key, hashed)]
            bucket = partition.primary.directory.bucket_for_hash(hashed)
            touched.setdefault(partition.partition_id, set()).add(bucket)
        assert len(touched) == PARTITIONS and all(len(b) > 1 for b in touched.values())
        delete_calls.clear()
        report = dataset.delete(keys)
        assert 200 < report.records_deleted < len(keys)
        # Per partition: one read of its distinct keys, then one run into
        # each bucket tree it touches, one into the primary-key index and
        # one into the secondary index.  No key is read on its own.
        assert delete_calls["lookup_many"] == len(touched)
        assert delete_calls["lookup"] == 0
        assert delete_calls["insert_many"] == sum(len(b) + 2 for b in touched.values())
        # Then one maintenance sweep: one pass per partition.
        assert delete_calls["maintain"] == PARTITIONS
        db.close()
