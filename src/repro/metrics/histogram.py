"""Fixed-bucket log-scale latency histograms.

Telemetry needs tail percentiles (p95/p99) over millions of samples without
keeping the samples.  A :class:`LatencyHistogram` buckets values on a
geometric grid (each bucket's upper edge is ``growth`` times the previous
one), so memory is a few hundred integers regardless of sample count and a
percentile is never off by more than one bucket width — the same trade
HdrHistogram and Prometheus histograms make.

Percentile queries return the upper edge of the bucket containing the
requested rank, which makes them *exact* when the recorded values sit on
bucket edges (the property the unit tests pin down) and conservative (never
under-reporting) otherwise.
"""

from __future__ import annotations

from collections import Counter
from math import log
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default grid: 1 microsecond to ~18 minutes in 31 half-decade-ish steps.
DEFAULT_MIN_LATENCY = 1e-6
DEFAULT_GROWTH = 2.0
DEFAULT_BUCKETS = 30

#: The percentiles reported by :meth:`LatencyHistogram.summary`.
SUMMARY_PERCENTILES = (0.50, 0.95, 0.99)


class LatencyHistogram:
    """A histogram over non-negative latencies (seconds) with log-scale buckets.

    Bucket ``i`` (for ``0 <= i < buckets``) holds values in
    ``(min_latency * growth**(i-1), min_latency * growth**i]``; bucket 0 also
    absorbs everything at or below ``min_latency``, and one extra overflow
    bucket holds values beyond the last edge (reported as the exact observed
    maximum).
    """

    def __init__(
        self,
        min_latency: float = DEFAULT_MIN_LATENCY,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if min_latency <= 0:
            raise ValueError("min_latency must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be greater than 1")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.min_latency = min_latency
        self.growth = growth
        #: Upper edges of the regular buckets (ascending).
        self.upper_edges: List[float] = [
            min_latency * growth**index for index in range(buckets)
        ]
        #: Counts per regular bucket plus one trailing overflow bucket.
        self.counts: List[int] = [0] * (buckets + 1)
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        # Precomputed constants for the O(1) log-index (see _bucket_index).
        self._log_min = log(min_latency)
        self._inv_log_growth = 1.0 / log(growth)
        self._top_edge = self.upper_edges[-1]

    # ------------------------------------------------------------- recording

    def _bucket_index(self, value: float) -> int:
        """Index of the bucket that counts ``value`` — O(1), bisect-exact.

        A log estimate lands within a bucket of the right answer; the
        neighbour checks then settle float round-off against the actual
        edges, so the result always equals ``bisect_left(upper_edges,
        value)`` (the determinism tests compare snapshots bit-for-bit with
        histograms filled the old way).
        """
        edges = self.upper_edges
        if value <= self.min_latency:
            return 0
        if value > self._top_edge:
            return len(edges)
        index = int((log(value) - self._log_min) * self._inv_log_growth)
        if index < 0:
            index = 0
        elif index >= len(edges):
            index = len(edges) - 1
        while index > 0 and edges[index - 1] >= value:
            index -= 1
        while edges[index] < value:
            index += 1
        return index

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` seconds."""
        if value < 0:
            raise ValueError("latencies cannot be negative")
        if count < 1:
            raise ValueError("count must be at least 1")
        self.counts[self._bucket_index(value)] += count
        self.count += count
        self.total += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def record_many(self, values: Iterable[float]) -> None:
        """Record a batch of single observations, in order.

        Equivalent to calling :meth:`record` per value — same counts, same
        float-accumulation order for ``total``, same min/max — with one
        bucket search per *distinct* value.  The whole batch is validated up
        front, so a bad value rejects the batch without mutating any state
        (``record`` likewise validates before touching its counters).
        """
        batch = values if isinstance(values, list) else list(values)
        if not batch:
            return
        lo = min(batch)
        if lo < 0:
            raise ValueError("latencies cannot be negative")
        hi = max(batch)
        # A batch holds few distinct latencies (one per component-open
        # count, often just one): each is placed once, with its multiplicity.
        counts = self.counts
        bucket_index = self._bucket_index
        if lo == hi:
            counts[bucket_index(lo)] += len(batch)
        else:
            for value, times in Counter(batch).items():
                counts[bucket_index(value)] += times
        total = self.total
        for value in batch:
            total += value
        self.count += len(batch)
        self.total = total
        if self.min_value is None or lo < self.min_value:
            self.min_value = lo
        if self.max_value is None or hi > self.max_value:
            self.max_value = hi

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram with the same bucket grid into this one."""
        if other.upper_edges != self.upper_edges:
            raise ValueError("cannot merge histograms with different bucket grids")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        for bound in (other.min_value,):
            if bound is not None and (self.min_value is None or bound < self.min_value):
                self.min_value = bound
        for bound in (other.max_value,):
            if bound is not None and (self.max_value is None or bound > self.max_value):
                self.max_value = bound

    # --------------------------------------------------------------- queries

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Latency at ``quantile`` (0 < q <= 1): the containing bucket's upper
        edge, or the exact observed maximum for the overflow bucket."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not self.count:
            return 0.0
        # Rank of the requested sample, 1-based (nearest-rank definition).
        rank = max(1, -int(-quantile * self.count // 1))
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.upper_edges):
                    return self.upper_edges[index]
                return float(self.max_value)
        return float(self.max_value)  # pragma: no cover - defensive

    def summary(self) -> Dict[str, float]:
        """The fixed summary row: count, mean, p50/p95/p99, and exact max."""
        row: Dict[str, float] = {"count": float(self.count), "mean": self.mean}
        for quantile in SUMMARY_PERCENTILES:
            row[f"p{int(quantile * 100)}"] = self.percentile(quantile)
        row["max"] = float(self.max_value) if self.max_value is not None else 0.0
        return row

    def snapshot(self) -> Tuple:
        """A hashable, comparable frozen view (used by determinism tests)."""
        return (
            tuple(self.counts),
            self.count,
            self.total,
            self.min_value,
            self.max_value,
        )

    @classmethod
    def from_snapshot(
        cls,
        snap: Tuple,
        min_latency: float = DEFAULT_MIN_LATENCY,
        growth: float = DEFAULT_GROWTH,
    ) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` tuple.

        The snapshot does not carry its grid parameters, so callers pass the
        grid the histogram was built with (every registry histogram uses the
        defaults).  Lets persisted :class:`~repro.metrics.MetricsSnapshot`
        documents answer percentile queries offline — e.g. the scenario CLI's
        ``inspect`` subcommand summarising a recording.
        """
        counts, count, total, min_value, max_value = snap
        if len(counts) < 2:
            raise ValueError("snapshot has no bucket counts")
        histogram = cls(min_latency, growth, len(counts) - 1)
        histogram.counts = list(counts)
        histogram.count = count
        histogram.total = total
        histogram.min_value = min_value
        histogram.max_value = max_value
        return histogram

    def since(self, earlier: Optional[Tuple]) -> "LatencyHistogram":
        """The samples recorded after ``earlier`` (a past :meth:`snapshot` of
        *this* histogram), as a new histogram on the same grid.

        The delta's ``min_value``/``max_value`` keep the cumulative bounds
        (the extremes of just the newer samples are not recoverable from
        bucket counts), so its percentiles stay conservative.
        """
        delta = LatencyHistogram(self.min_latency, self.growth, len(self.upper_edges))
        if earlier is None:
            earlier_counts: Sequence[int] = (0,) * len(self.counts)
            earlier_count = 0
            earlier_total = 0.0
        else:
            earlier_counts, earlier_count, earlier_total = earlier[0], earlier[1], earlier[2]
            if len(earlier_counts) != len(self.counts):
                raise ValueError("snapshot comes from a different bucket grid")
        delta.counts = [now - past for now, past in zip(self.counts, earlier_counts, strict=True)]
        if any(count < 0 for count in delta.counts):
            raise ValueError("snapshot is not from this histogram's past")
        delta.count = self.count - earlier_count
        delta.total = self.total - earlier_total
        delta.min_value = self.min_value
        delta.max_value = self.max_value
        return delta

    def nonzero_buckets(self) -> Sequence[Tuple[float, int]]:
        """(upper_edge, count) for every populated bucket, for debugging."""
        populated = []
        for index, count in enumerate(self.counts):
            if count:
                edge = (
                    self.upper_edges[index]
                    if index < len(self.upper_edges)
                    else float("inf")
                )
                populated.append((edge, count))
        return populated

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LatencyHistogram(count={self.count}, p99={self.percentile(0.99):.6f}, "
            f"max={self.max_value})"
        )
