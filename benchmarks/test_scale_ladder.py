"""Scale ladder: bytes held per row, and point reads, at 1e4 and 1e5 rows.

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

Wall rows/s and the 1e6 rung are not measured here.
"""

import gc
import random
import time
import tracemalloc

from conftest import print_figure

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig
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
