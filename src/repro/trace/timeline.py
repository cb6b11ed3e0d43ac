"""Sampled time-series gauges and per-bucket heat for a traced run.

The :class:`TimelineRecorder` complements the span tree with the *state*
view of a run: on a configurable simulated-time interval it samples per-node
storage bytes, in-flight rebalance progress, a rolling write p99 (the delta
window of the registry's cumulative histograms), and the hottest bucket's
read/write heat into compact columnar :class:`TimeSeries`.

Heat is the one signal no existing event carries — op events are per-call,
not per-key — so the recorder installs a :class:`BucketHeat` tracker on the
cluster's ``heat`` hook.  The hot paths (`Dataset` reads, `DataFeed` writes)
pay a single ``is not None`` probe when tracing is off, the same bargain as
``EventBus.has_subscribers``; when a recorder is attached, each call credits
its key's *current* bucket, so heat follows the directory across splits and
moves.  The cumulative counters surface on
:class:`~repro.control.observation.ClusterObservation` for autopilot
policies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..common.events import Event, Subscription
from ..metrics import PHASE_REBALANCE, PHASE_STEADY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database
    from ..cluster.controller import SimulatedCluster

__all__ = ["BucketHeat", "TimeSeries", "TimelineRecorder"]

#: Default sampling interval in simulated seconds.
DEFAULT_INTERVAL_SECONDS = 0.25


class TimeSeries:
    """One named gauge as parallel ``times``/``values`` columns."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "times": list(self.times), "values": list(self.values)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.name!r}, points={len(self.times)})"


class BucketHeat:
    """Cumulative per-(dataset, bucket) read/write op counts.

    Keys are credited to the bucket that currently owns them (the live
    directory), so after a split or move new traffic heats the new owner.
    Under modulo routing (the Hashing baseline) the partition id stands in
    for the bucket label.
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self._cluster = cluster
        self._reads: Dict[Tuple[str, str], int] = {}
        self._writes: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------- recording

    def record_read(self, dataset: str, hashed: int) -> None:
        """Credit one point read by its already-computed key hash."""
        self._record(self._reads, dataset, hashed)

    def record_write(self, dataset: str, hashed: int) -> None:
        """Credit one written row by its already-computed key hash."""
        self._record(self._writes, dataset, hashed)

    def _record(self, counters: Dict[Tuple[str, str], int], dataset: str, hashed: int) -> None:
        label = self._bucket_label(dataset, hashed)
        if label is None:
            return
        bucket_key = (dataset, label)
        counters[bucket_key] = counters.get(bucket_key, 0) + 1

    def _bucket_label(self, dataset: str, hashed: int) -> Optional[str]:
        runtime = self._cluster.cc.datasets.get(dataset)
        if runtime is None:
            return None
        if runtime.routing_mode == "directory" and runtime.global_directory is not None:
            return runtime.global_directory.lookup_hash(hashed)[0].label
        if not runtime.partitions:
            return None
        return f"p{hashed % len(runtime.partitions)}"

    # --------------------------------------------------------------- queries

    def read_heat(self) -> Tuple[Tuple[str, str, int], ...]:
        """``(dataset, bucket, reads)`` sorted by (dataset, bucket)."""
        return tuple((ds, bucket, count) for (ds, bucket), count in sorted(self._reads.items()))

    def write_heat(self) -> Tuple[Tuple[str, str, int], ...]:
        """``(dataset, bucket, writes)`` sorted by (dataset, bucket)."""
        return tuple((ds, bucket, count) for (ds, bucket), count in sorted(self._writes.items()))

    def max_read(self) -> int:
        return max(self._reads.values(), default=0)

    def max_write(self) -> int:
        return max(self._writes.values(), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BucketHeat(reads={len(self._reads)}, writes={len(self._writes)})"


class TimelineRecorder:
    """Samples gauges into columnar series on a simulated-time grid.

    Sampling is driven by the op event stream: each event is a chance to
    notice the clock crossed the next grid boundary (the clock only moves
    when work is charged, so there is nothing to wake up for in between).
    Rebalance start/completion force an off-grid sample so node-set and
    in-flight edges are never missed.  Every sample also publishes a
    ``trace.sample`` event (when anyone listens) carrying the values.
    """

    def __init__(self, db: "Database", interval_seconds: float = DEFAULT_INTERVAL_SECONDS) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.db = db
        self.interval_seconds = float(interval_seconds)
        self.heat = BucketHeat(db.cluster)
        self._series: Dict[str, TimeSeries] = {}
        self._subscriptions: List[Subscription] = []
        self._next_at = 0.0
        self._moves = 0
        self._write_prev: Optional[Tuple] = None
        self._attached = False
        self._finished = False

    # ------------------------------------------------------------------ wiring

    def attach(self) -> "TimelineRecorder":
        """Install the heat hook, subscribe, and take the first sample."""
        if self._attached:
            return self
        self._attached = True
        cluster = self.db.cluster
        if cluster.heat is None:
            cluster.heat = self.heat
        events = self.db.events
        self._subscriptions = [
            events.on("op.*", self._on_tick),
            events.on("rebalance.bucket_move", self._on_bucket_move),
            events.on("rebalance.start", self._on_rebalance_edge),
            events.on("rebalance.complete", self._on_rebalance_edge),
        ]
        now = self.db.metrics.clock.now
        self._next_at = now + self.interval_seconds
        self._sample(now)
        return self

    def finish(self) -> Dict[str, TimeSeries]:
        """Take a closing sample, unsubscribe, and uninstall the heat hook."""
        if self._finished:
            return self._series
        self._finished = True
        self._sample(self.db.metrics.clock.now)
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = []
        if self.db.cluster.heat is self.heat:
            self.db.cluster.heat = None
        return self._series

    # -------------------------------------------------------------- sampling

    def _on_tick(self, event: Event) -> None:
        now = self.db.metrics.clock.now
        if now >= self._next_at:
            while self._next_at <= now:
                self._next_at += self.interval_seconds
            self._sample(now)

    def _on_bucket_move(self, event: Event) -> None:
        self._moves += 1

    def _on_rebalance_edge(self, event: Event) -> None:
        self._sample(self.db.metrics.clock.now)

    def _sample(self, now: float) -> None:
        metrics = self.db.metrics
        values: Dict[str, float] = {}
        for node_id, size in sorted(self.db.cluster.storage_per_node().items()):
            values[f"node.bytes.{node_id}"] = float(size)
        values["rebalance.in_flight"] = float(metrics.gauge_value("rebalance.in_flight"))
        values["rebalance.buckets_moved"] = float(self._moves)
        values["write.p99.rolling"] = self._rolling_write_p99()
        values["heat.read.max"] = float(self.heat.max_read())
        values["heat.write.max"] = float(self.heat.max_write())
        chaos = self.db.cluster.chaos
        if chaos is not None:
            # Chaos series exist only on chaos-armed runs, so chaos-free
            # recordings (and their golden trace payloads) are untouched.
            values["chaos.stragglers.active"] = float(len(chaos.active_stragglers()))
            values["retry.routing_miss"] = float(metrics.counter_value("retry.routing_miss"))
            values["retry.backoff"] = float(metrics.counter_value("retry.backoff"))
        for name, value in values.items():
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(name)
            series.append(now, value)
        events = self.db.events
        if events.has_subscribers("trace.sample"):
            events.emit("trace.sample", simulated_seconds=now, values=values)

    def _rolling_write_p99(self) -> float:
        """p99 of the write samples recorded since the previous sample."""
        current = self.db.metrics.write_latency(PHASE_STEADY)
        current.merge(self.db.metrics.write_latency(PHASE_REBALANCE))
        window = current.since(self._write_prev)
        self._write_prev = current.snapshot()
        return window.percentile(0.99) if window.count else 0.0

    # ----------------------------------------------------------------- output

    @property
    def series(self) -> List[TimeSeries]:
        """The recorded series, sorted by name."""
        return [self._series[name] for name in sorted(self._series)]

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe form embedded into recordings and trace files."""
        return {
            "interval_seconds": self.interval_seconds,
            "series": [series.to_payload() for series in self.series],
            "heat": {
                "read": [list(entry) for entry in self.heat.read_heat()],
                "write": [list(entry) for entry in self.heat.write_heat()],
            },
        }
