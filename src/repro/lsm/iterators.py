"""Scan reconciliation across LSM components.

A range scan over an LSM-tree must reconcile entries with identical keys from
multiple components, preferring entries from newer components, and must drop
tombstones from the final result (Section II-B).  The paper does this with a
priority queue, and that is what the *simulated* cost is: the cost model
charges the comparisons (``estimate_merge_comparisons``) and the bytes read.
The host does not replay the queue entry by entry.  :func:`reconcile` works a
run at a time — the sorted runs are concatenated newest first and put in key
order by one *stable* sort, so among equal keys the entry of the newest run
comes first and every later one is masked out — with the per-entry work
inside C calls.  Every scan, every merge and every bucket move goes through
it, and the bucketed LSM-tree's merge-sorted scan mode is the same stable
sort (:func:`repro.lsm.entry.sort_order`) over disjoint runs.
"""

from __future__ import annotations

import operator
from array import array
from itertools import compress, islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .entry import Entry, sort_order

_Column = TypeVar("_Column", List[Any], array)

_key_of = operator.attrgetter("key")
_is_tombstone = operator.attrgetter("tombstone")


def take(column: Sequence[Any], order: Sequence[int]) -> Sequence[Any]:
    """``column[i] for i in order``, gathered by one C call."""
    if len(order) < 2:  # itemgetter returns a bare item for one index
        return [column[i] for i in order]
    return operator.itemgetter(*order)(column)


def joined(columns: Iterable[Iterable[Any]], into: _Column) -> _Column:
    """``into`` (an empty list or array) extended by every column, in order."""
    for column in columns:
        into.extend(column)
    return into


def reconcile(
    runs: Sequence[Sequence[Entry]],
    keys: Optional[Sequence[Sequence[Any]]] = None,
    hashes: Optional[Sequence[Sequence[int]]] = None,
    include_tombstones: bool = False,
) -> Tuple[List[Entry], Optional[array]]:
    """Reconcile sorted ``runs`` into one sorted list with one entry per key.

    ``runs`` must be ordered **newest first** (the LSM component order): when
    two runs hold the same key, the entry from the earlier run wins regardless
    of sequence numbers, matching how an LSM-tree treats its component list as
    the authority on recency.  ``keys`` and ``hashes`` are the runs' aligned
    columns — ``entry.key`` and ``hash_key(entry.key)`` of every entry — when
    the caller holds them: without ``keys`` they are read off the entries,
    and with ``hashes`` the reconciled entries' hashes are returned beside
    them, selected by position (no key is hashed).

    A run holds each key once (a component does), so a single non-empty run
    is already the answer and no key is touched; among two or more, a key
    repeated inside a run is reconciled like one repeated across runs.
    Tombstones are dropped in a final pass unless ``include_tombstones`` is set
    (a merge that is *not* merging the oldest component must keep tombstones
    so they continue to shadow older components).
    """
    entries: List[Entry] = joined(runs, [])
    hashed = None if hashes is None else joined(hashes, array("Q"))
    if sum(map(bool, runs)) > 1:
        # Timsort finds the runs' ascending stretches and merges them; equal
        # keys stay in run order, so the newest run's entry comes first.
        order, ranks = sort_order(list(map(_key_of, entries)) if keys is None else joined(keys, []))
        ranked = take(ranks, order)
        newest = [True]
        newest.extend(map(operator.ne, islice(ranked, 1, None), ranked))
        entries = list(compress(take(entries, order), newest))
        if hashed is not None:
            hashed = array("Q", compress(take(hashed, order), newest))
    if not include_tombstones:
        entries, hashed = drop_tombstones(entries, hashed)
    return entries, hashed


def drop_tombstones(
    entries: List[Entry], hashed: Optional[array] = None
) -> Tuple[List[Entry], Optional[array]]:
    """``entries`` without their tombstones, and ``hashed`` (their aligned
    hash column, if given) without those slots; both returned as given when
    there is no tombstone to drop."""
    if any(map(_is_tombstone, entries)):
        live = list(map(operator.not_, map(_is_tombstone, entries)))
        entries = list(compress(entries, live))
        if hashed is not None:
            hashed = array("Q", compress(hashed, live))
    return entries, hashed


def merge_scan(
    sources: Sequence[Iterable[Entry]],
    include_tombstones: bool = False,
) -> Iterator[Entry]:
    """Merge already-sorted entry streams, reconciling duplicate keys.

    :func:`reconcile` over plain entry streams (newest first): nothing is read
    from ``sources`` before the first ``next()``.
    """
    runs = list(map(list, sources))
    yield from reconcile(runs, include_tombstones=include_tombstones)[0]


def merge_runs(
    runs: Sequence[Tuple[Sequence[Entry], Optional[Sequence[int]]]],
    drop_tombstones: bool,
) -> Tuple[List[Entry], Optional[array]]:
    """Materialise a reconciled merge of runs and their key-hash columns.

    Each run is ``(entries, hashed)`` with ``hashed[i] == hash_key(entries[i].key)``
    (newest run first), or ``hashed`` ``None`` for a run that holds no column.
    Returns the merged entries and their hashes in output order, or ``None``
    for the hashes when any run had none (no key is hashed here).  Used by
    LSM merges — when the merge includes the oldest component of the tree,
    ``drop_tombstones`` should be True so deleted records physically
    disappear; otherwise tombstones are preserved — and by the source-side
    scan of a bucket move.
    """
    for entries, hashed in runs:
        if hashed is not None and len(hashed) != len(entries):
            raise ValueError(f"{len(hashed)} hashes for {len(entries)} entries")
    columns = [hashed for _, hashed in runs if hashed is not None]
    return reconcile(
        [entries for entries, _ in runs],
        hashes=columns if len(columns) == len(runs) else None,
        include_tombstones=not drop_tombstones,
    )
