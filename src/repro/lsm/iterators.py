"""Scan reconciliation across LSM components.

A range scan over an LSM-tree must reconcile entries with identical keys from
multiple components, preferring entries from newer components, and must drop
tombstones from the final result (Section II-B).  :func:`merge_scan` does this
with a priority queue, exactly as the paper describes; it is reused by the
bucketed LSM-tree's merge-sorted scan mode and by merges themselves.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .entry import Entry, sort_key


def merge_scan(
    sources: Sequence[Iterable[Entry]],
    include_tombstones: bool = False,
) -> Iterator[Entry]:
    """Merge already-sorted entry streams, reconciling duplicate keys.

    ``sources`` must be ordered **newest first** (the LSM component order):
    when two streams produce the same key, the entry from the earlier stream
    wins regardless of sequence numbers, matching how an LSM-tree treats its
    component list as the authority on recency.  Within correct usage the two
    orderings agree; tests exercise both.

    Tombstoned keys are suppressed unless ``include_tombstones`` is set (a
    merge that is *not* merging the oldest component must keep tombstones so
    they continue to shadow older components).
    """
    iterators = [iter(source) for source in sources]
    heap: List[Tuple[Tuple, int, int, Entry]] = []
    counter = 0
    for priority, iterator in enumerate(iterators):
        for entry in iterator:
            heapq.heappush(heap, (sort_key(entry.key), priority, counter, entry))
            counter += 1
            break
    # Track which iterator each heap item came from so we can pull its next
    # element lazily; storing (key, priority) keeps newest-first tie-breaking.
    active: List[Iterator[Entry]] = iterators

    def push_next(priority: int) -> None:
        nonlocal counter
        for entry in active[priority]:
            heapq.heappush(heap, (sort_key(entry.key), priority, counter, entry))
            counter += 1
            break

    last_key: Optional[Tuple] = None
    emitted_for_key = False
    while heap:
        key, priority, _, entry = heapq.heappop(heap)
        push_next(priority)
        if key != last_key:
            last_key = key
            emitted_for_key = False
        if emitted_for_key:
            continue
        emitted_for_key = True
        if entry.tombstone and not include_tombstones:
            continue
        yield entry


def merge_entries(
    sources: Sequence[Iterable[Entry]],
    drop_tombstones: bool,
) -> List[Entry]:
    """Materialise a reconciled merge of ``sources`` (newest first).

    Used by LSM merges: when the merge includes the oldest component of the
    tree, ``drop_tombstones`` should be True so deleted records physically
    disappear; otherwise tombstones are preserved.
    """
    return list(merge_scan(sources, include_tombstones=not drop_tombstones))


def merge_runs(
    runs: Sequence[Tuple[Sequence[Entry], Sequence[int]]],
    drop_tombstones: bool,
) -> Tuple[List[Entry], array]:
    """:func:`merge_entries` over sources that carry their key-hash column.

    Each run is ``(entries, hashed)`` with ``hashed[i] == hash_key(entries[i].key)``
    (newest run first).  Returns the merged entries and their hashes in output
    order, looked up from the inputs' columns — no key is hashed, and
    :func:`merge_scan` yields what it always did, so scans pay nothing for it.
    """
    hash_of: Dict[Any, int] = {}
    for entries, hashed in runs:
        hash_of.update(zip([entry.key for entry in entries], hashed, strict=True))
    merged = merge_entries([entries for entries, _ in runs], drop_tombstones)
    return merged, array("Q", [hash_of[entry.key] for entry in merged])


def count_live_entries(sources: Sequence[Iterable[Entry]]) -> int:
    """Number of live (non-deleted) keys visible across ``sources``."""
    return sum(1 for _ in merge_scan(sources, include_tombstones=False))
