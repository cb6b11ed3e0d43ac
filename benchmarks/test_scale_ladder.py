"""Scale ladder: bytes held per row, point reads and single-row upserts, at
1e4 and 1e5 rows.

Each rung is a fresh split-config dataset (the e2e suite's *split* shape:
4 nodes x 2 partitions, 32 KiB memory components, 48 KiB bucket cap) taking
one bulk insert of that many 64-byte rows, so buckets flush, merge and split
all the way.

Memory rung: what the insert leaves allocated is measured with
``tracemalloc``; the rows are built before the trace starts, so the figure is
storage alone.  Shape: storage holds only what is live, so the bytes per row
stay under the 450 B bar and flat in rows.

Read rung: every key is read once, in 4,096-key ``get_many`` runs.  Shape:
every read finds its row, and a read asks a component's Bloom filter only
about a key the component lacks, so few filters are built: the keys the
builds cover stay under half a key per row read (asking every filter first
builds about one per row).  The µs per key is printed, not asserted.

Write rung: 200 existing keys are upserted one row per feed call
(``upsert_each``, the workload driver's update path).  Shape: a feed call
skips the partitions its earlier passes left idle, so a row costs one
maintenance pass per partition, whatever the row count, plus one more for
each pass that did work (a flush, merge or split leaves the partition for the
call's trailing sweep).  The µs per upsert is printed, not asserted.

Wall rows/s and the 1e6 rung are not measured here.
"""

import gc
import random
import time
import tracemalloc

from conftest import print_figure

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig
from repro.cluster.partition import StoragePartition
from repro.common.reporting import format_table
from repro.lsm.bloom import BloomFilter

RUNGS = (10_000, 100_000)
MAX_BYTES_PER_ROW = 450
#: How far the largest rung's bytes per row may exceed the smallest's.
MAX_GROWTH = 1.05
#: Keys per ``get_many`` call of the read rung.
READ_RUN = 4096
#: Bloom-filter keys built per row read, at most.
MAX_FILTER_KEYS_PER_READ = 0.5
#: Partitions of the ladder's cluster (4 nodes x 2).
PARTITIONS = 8
#: Existing keys the write rung upserts, one feed call each.
UPSERTS = 200


def load_ladder(rows, seed=2022):
    """An empty split-config dataset, its rows (keys shuffled) and the keys."""
    db = Database(
        ClusterConfig(
            num_nodes=4,
            partitions_per_node=2,
            seed=seed,
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        ),
        strategy="dynahash",
    )
    dataset = db.create_dataset("ladder", primary_key="k")
    keys = list(range(rows))
    random.Random(seed).shuffle(keys)
    batch = [{"k": key, "payload": f"{key:010d}" + "x" * 54} for key in keys]
    return db, dataset, batch, keys


def bytes_held_per_row(rows):
    db, dataset, batch, _ = load_ladder(rows)
    gc.collect()
    tracemalloc.start()
    try:
        dataset.insert(batch, batch_size=2000)
        del batch
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / rows
    finally:
        tracemalloc.stop()
        db.close()


def test_scale_ladder_bytes_held_per_row(benchmark):
    held = benchmark.pedantic(
        lambda: {rows: bytes_held_per_row(rows) for rows in RUNGS}, rounds=1, iterations=1
    )
    print_figure(
        "Scale ladder: bytes held per row (split config)",
        format_table(["rows", "B/row"], [[rows, round(value, 1)] for rows, value in held.items()]),
    )
    assert all(value <= MAX_BYTES_PER_ROW for value in held.values()), held
    assert held[RUNGS[-1]] <= MAX_GROWTH * held[RUNGS[0]], held


def read_every_key(rows, built):
    """``(µs per key, rows found, filter keys built per row read)`` of one
    read of every key; ``built`` collects the key count of each filter build."""
    db, dataset, batch, keys = load_ladder(rows)
    dataset.insert(batch, batch_size=2000)
    del batch
    built.clear()
    found = 0
    start = time.perf_counter()
    for at in range(0, rows, READ_RUN):
        found += sum(record is not None for record in dataset.get_many(keys[at : at + READ_RUN]))
    elapsed = time.perf_counter() - start
    db.close()
    return elapsed / rows * 1e6, found, sum(built) / rows


def test_scale_ladder_reads(benchmark, monkeypatch):
    built = []
    build = BloomFilter.build.__func__

    def counting(cls, keys, *args, **kwargs):
        built.append(len(keys))
        return build(cls, keys, *args, **kwargs)

    monkeypatch.setattr(BloomFilter, "build", classmethod(counting))
    reads = benchmark.pedantic(
        lambda: {rows: read_every_key(rows, built) for rows in RUNGS}, rounds=1, iterations=1
    )
    print_figure(
        f"Scale ladder: every key read once in {READ_RUN}-key runs (split config)",
        format_table(
            ["rows", "us/key", "filter keys built per row read"],
            [[rows, round(us, 2), round(keys, 3)] for rows, (us, _, keys) in reads.items()],
        ),
    )
    assert all(found == rows for rows, (_, found, _) in reads.items()), reads
    assert all(keys <= MAX_FILTER_KEYS_PER_READ for _, _, keys in reads.values()), reads


def upsert_existing_keys(rows, passes):
    """``(µs per upsert, passes per row, busy passes per row)`` of
    ``UPSERTS`` single-row upserts of existing keys; ``passes`` collects
    whether each maintenance pass they run was idle."""
    db, dataset, batch, keys = load_ladder(rows)
    dataset.insert(batch, batch_size=2000)
    del batch
    updates = [{"k": key, "payload": f"{key:010d}" + "y" * 54} for key in keys[:UPSERTS]]
    passes.clear()
    start = time.perf_counter()
    reports = dataset.upsert_each(updates)
    elapsed = time.perf_counter() - start
    db.close()
    assert [report.records for report in reports] == [1] * UPSERTS
    return elapsed / UPSERTS * 1e6, len(passes) / UPSERTS, passes.count(False) / UPSERTS


def test_scale_ladder_writes(benchmark, monkeypatch):
    passes = []
    maintain = StoragePartition.maintain

    def counting(partition, *args, **kwargs):
        report = maintain(partition, *args, **kwargs)
        passes.append(report.idle)
        return report

    monkeypatch.setattr(StoragePartition, "maintain", counting)
    writes = benchmark.pedantic(
        lambda: {rows: upsert_existing_keys(rows, passes) for rows in RUNGS},
        rounds=1,
        iterations=1,
    )
    print_figure(
        f"Scale ladder: {UPSERTS} existing keys upserted one row per feed call (split config)",
        format_table(
            ["rows", "us/upsert", "maintenance passes per row", "of them busy"],
            [
                [rows, round(us, 1), round(per_row, 3), round(busy, 3)]
                for rows, (us, per_row, busy) in writes.items()
            ],
        ),
    )
    assert all(per_row <= PARTITIONS + busy for _, per_row, busy in writes.values()), writes
