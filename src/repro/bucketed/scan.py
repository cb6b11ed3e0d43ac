"""Range-scan modes for the bucketed LSM-tree.

With hash bucketing, records in different buckets are not in a global primary
key order.  Section IV describes two ways to serve a primary-key range scan:

* **Unordered (per-bucket)**: scan each bucket separately and concatenate the
  results.  No extra overhead versus a traditional LSM-tree, but the output is
  not globally sorted on the primary key.
* **Ordered (merge-sorted)**: merge-sort the per-bucket streams, restoring
  global key order at the cost of the extra merge-sort step.  That cost is
  *simulated*: the cost model charges :func:`estimate_merge_comparisons`, the
  comparisons of the paper's priority queue.  The host puts the concatenated
  bucket runs in order with the one stable sort every LSM scan uses
  (:func:`repro.lsm.entry.sort_order`).

AsterixDB's optimizer picks the unordered mode unless a downstream operator
(an ORDER BY, or a GROUP BY on a prefix of the primary key, as in TPC-H q18)
needs key order; :func:`choose_scan_mode` encodes that rule so the query
planner, the benchmarks and the ablation study all share it.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from ..lsm.entry import Entry, sort_order
from ..lsm.iterators import joined, take

_key_of = attrgetter("key")


class ScanMode(Enum):
    """How a bucketed primary-index scan orders its output."""

    UNORDERED = "unordered"
    ORDERED = "ordered"


def choose_scan_mode(requires_primary_key_order: bool) -> ScanMode:
    """AsterixDB's optimization rule for bucketed primary-index scans."""
    return ScanMode.ORDERED if requires_primary_key_order else ScanMode.UNORDERED


def unordered_scan(bucket_scans: Sequence[Iterable[Entry]]) -> Iterator[Entry]:
    """Concatenate per-bucket scans; no cross-bucket ordering guarantee."""
    return chain.from_iterable(bucket_scans)


def ordered_scan(bucket_scans: Sequence[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge-sort per-bucket scans into global primary-key order.

    Unlike :func:`repro.lsm.iterators.reconcile`, no reconciliation is needed
    here: a key lives in exactly one bucket, so the streams are disjoint and
    nothing is masked out.  The simulated cost is the priority-queue
    comparisons, which is exactly the overhead the paper observes on q18.
    Nothing is read from ``bucket_scans`` before the first ``next()``; then
    the partition's buckets are read in full and held until exhausted.
    """
    runs = list(map(list, bucket_scans))
    entries = joined(runs, [])
    if sum(map(bool, runs)) > 1:
        order, _ = sort_order(list(map(_key_of, entries)))
        entries = take(entries, order)
    yield from entries


def scan_with_mode(bucket_scans: Sequence[Iterable[Entry]], mode: ScanMode) -> Iterator[Entry]:
    """Dispatch to the requested scan mode."""
    if mode is ScanMode.ORDERED:
        return ordered_scan(bucket_scans)
    return unordered_scan(bucket_scans)


def estimate_merge_comparisons(bucket_count: int, total_records: int) -> int:
    """Rough comparison count of the ordered scan: N * log2(buckets).

    Used by the cost model to charge the q18-style merge-sort overhead
    proportionally to the number of buckets per partition — which is why
    StaticHash (16 buckets/partition at 4 nodes) pays more than DynaHash
    (4 buckets/partition) in Figure 8a.
    """
    if bucket_count <= 1 or total_records <= 0:
        return 0
    log_buckets = max(1, (bucket_count - 1).bit_length())
    return total_records * log_buckets
