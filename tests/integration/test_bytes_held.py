"""Memory ratchet: the bytes storage holds per ingested row stay flat in rows.

Bulk inserts on the split config (32 KiB memory components, 48 KiB bucket
cap) flush, merge and split all the way; what they leave allocated is
measured with ``tracemalloc``.  Storage must hold only what is live: a
reclaimed component releases its columns and a retired split parent is not
pinned, so the figure does not grow with the data.  While reclaimed data was
still held, the same loads held ~526 B/row at 8k rows and ~571 at 32k.
"""

import gc
import random
import tracemalloc

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig

#: Bytes held per row at either size, and how far the larger may exceed the smaller.
MAX_BYTES_PER_ROW = 470
MAX_GROWTH = 1.05


def bytes_held_per_row(sizes, seed=2022):
    """Bytes held per row by one split-config dataset after it has taken its
    first ``sizes[0]`` rows, its first ``sizes[1]``, and so on, each step one
    bulk ``insert`` of the rows it adds.  The rows are built before the trace
    starts, so what the trace sees is storage."""
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
    dataset = db.create_dataset("traffic", primary_key="k")
    keys = list(range(sizes[-1]))
    random.Random(seed).shuffle(keys)
    rows = [{"k": key, "payload": f"{key:010d}" + "x" * 54} for key in keys]
    held = []
    gc.collect()
    tracemalloc.start()
    try:
        loaded = 0
        for size in sizes:
            dataset.insert(rows[loaded:size], batch_size=2000)
            loaded = size
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] / size)
    finally:
        tracemalloc.stop()
    return held


def test_bytes_held_per_row_is_bounded_and_flat():
    small, large = bytes_held_per_row([8_000, 32_000])
    assert small <= MAX_BYTES_PER_ROW, small
    assert large <= MAX_BYTES_PER_ROW, large
    assert large <= MAX_GROWTH * small, (small, large)
