"""Scale ladder, memory rung: bytes held per row at 1e4 and 1e5 rows.

Each rung is a fresh split-config dataset (the e2e suite's *split* shape:
4 nodes x 2 partitions, 32 KiB memory components, 48 KiB bucket cap) taking
one bulk insert of that many 64-byte rows, so buckets flush, merge and split
all the way.  What the insert leaves allocated is measured with
``tracemalloc``; the rows are built before the trace starts, so the figure is
storage alone.  Shape: storage holds only what is live, so the bytes per row
stay under the 450 B bar and flat in rows.  Wall rows/s and the 1e6 rung are
not measured here.
"""

import gc
import random
import tracemalloc

from conftest import print_figure

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig
from repro.common.reporting import format_table

RUNGS = (10_000, 100_000)
MAX_BYTES_PER_ROW = 450
#: How far the largest rung's bytes per row may exceed the smallest's.
MAX_GROWTH = 1.05


def bytes_held_per_row(rows, seed=2022):
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
    gc.collect()
    tracemalloc.start()
    try:
        dataset.insert(batch, batch_size=2000)
        del batch
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / rows
    finally:
        tracemalloc.stop()


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
