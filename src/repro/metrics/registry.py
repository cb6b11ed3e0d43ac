"""The metrics registry: phase-aware telemetry over the cluster event bus.

A :class:`MetricsRegistry` owns every counter, gauge, and latency histogram
of one :class:`~repro.api.database.Database` session.  It subscribes to the
cluster's :class:`~repro.common.events.EventBus` (see
:mod:`repro.api.events`), so telemetry is driven by the same lifecycle events
client code can observe:

* ``op.*`` events (emitted by the instrumented dataset verbs) become latency
  samples and throughput counters;
* ``rebalance.start`` / ``rebalance.complete`` / ``rebalance.error`` flip the
  registry's *cluster phase* between ``"steady"`` and ``"rebalance"``, and
  every op sample is tagged with the phase in flight when it was recorded —
  which is how "write latency during a rehash" (the paper's Figure 7c story)
  becomes a first-class metric instead of an experiment-specific hack;
* ``ingest.complete``, ``node.provision`` / ``node.decommission``, and the
  ``dataset.*`` events keep cluster-level counters and gauges current.

Time is *simulated* time: the registry advances its own
:class:`~repro.common.clock.SimulatedClock` by each sample's latency, so
throughput numbers are deterministic and comparable across runs.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..common.clock import SimulatedClock
from ..common.events import Event, EventBus, Subscription
from ..common.reporting import format_table
from .counters import Counter, Gauge
from .histogram import LatencyHistogram

#: The two cluster phases an op sample can be tagged with.
PHASE_STEADY = "steady"
PHASE_REBALANCE = "rebalance"

#: Operation names carried by ``op.*`` events, in report order.
OP_NAMES = ("read", "insert", "update", "delete", "scan", "query")

#: Ops counted as writes by :meth:`MetricsRegistry.write_latency`.
WRITE_OPS = ("insert", "update", "delete")


@dataclass
class MetricsSnapshot:
    """A frozen, comparable view of a registry (the determinism contract).

    Two runs with the same seed must produce *equal* snapshots; the
    determinism tests compare these directly.
    """

    phase: str
    simulated_seconds: float
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, Optional[float]] = field(default_factory=dict)
    #: ``"op[phase]"`` -> histogram snapshot tuple.
    histograms: Dict[str, Tuple] = field(default_factory=dict)

    def histogram_count(self, op: str, phase: str) -> int:
        snap = self.histograms.get(f"{op}[{phase}]")
        return snap[1] if snap is not None else 0

    # ------------------------------------------------------------ persistence

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the snapshot to JSON (a stable, sorted document).

        The round trip is lossless: ``MetricsSnapshot.from_json(s.to_json())``
        compares *equal* to ``s``, so bench runs and the autopilot can persist
        telemetry to disk and replay it later without breaking the
        determinism contract.
        """
        return json.dumps(
            {
                "version": 1,
                "phase": self.phase,
                "simulated_seconds": self.simulated_seconds,
                "counters": self.counters,
                "gauges": self.gauges,
                # Histogram snapshots are (counts, count, total, min, max)
                # tuples; JSON has no tuples, so they travel as lists and
                # from_json restores the tuple shape.
                "histograms": {
                    key: [list(snap[0]), *snap[1:]] for key, snap in self.histograms.items()
                },
            },
            sort_keys=True,
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Rebuild a snapshot serialised by :meth:`to_json`."""
        data = json.loads(text)
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported MetricsSnapshot JSON version {version!r}")
        return cls(
            phase=data["phase"],
            simulated_seconds=data["simulated_seconds"],
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                key: (tuple(value[0]), *value[1:])
                for key, value in data.get("histograms", {}).items()
            },
        )


#: What an op sample feeds: its histogram, the counters that count it and
#: the one that counts its records (``None`` when it carries none).
_Sink = Tuple[LatencyHistogram, List[Counter], Optional[Counter]]


class MetricsRegistry:
    """All telemetry of one database session, fed by the event bus."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.phase = PHASE_STEADY
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[Tuple[str, str], LatencyHistogram] = {}
        #: What an op sample feeds, per (op, phase, dataset, carries records):
        #: see :meth:`_sink` (nothing is ever removed from the maps above).
        self._sinks: Dict[Tuple[str, str, Optional[str], bool], _Sink] = {}
        self._subscriptions: List[Subscription] = []
        self._bus: Optional[EventBus] = None
        #: Clock reading when the in-flight rebalance started; op samples
        #: recorded after this point overlap the rebalance, so its duration
        #: is only advanced for the remainder (see ``_on_rebalance_complete``).
        self._rebalance_started_at = 0.0

    # ------------------------------------------------------------------ wiring

    def attach(self, bus: EventBus) -> "MetricsRegistry":
        """Subscribe to ``bus``; idempotent per bus, returns ``self``."""
        if self._bus is bus:
            return self
        self.detach()
        self._bus = bus
        self._subscriptions = [
            bus.on("op.*", self._on_op),
            bus.on("op.batch", self._on_op_batch),
            bus.on("rebalance.start", self._on_rebalance_start),
            bus.on("rebalance.complete", self._on_rebalance_complete),
            bus.on("rebalance.error", self._on_rebalance_error),
            bus.on("rebalance.phase", self._on_rebalance_phase),
            bus.on("ingest.complete", self._on_ingest_complete),
            bus.on("node.*", self._on_node_change),
            bus.on("dataset.create", self._on_dataset_create),
            bus.on("dataset.drop", self._on_dataset_drop),
            bus.on("autopilot.*", self._on_autopilot),
            bus.on("chaos.*", self._on_chaos),
            bus.on("retry.*", self._on_retry),
        ]
        return self

    def detach(self) -> None:
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = []
        self._bus = None

    @property
    def in_rebalance(self) -> bool:
        return self.phase == PHASE_REBALANCE

    # -------------------------------------------------------------- primitives

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, op: str, phase: Optional[str] = None) -> LatencyHistogram:
        key = (op, phase or self.phase)
        if key not in self._histograms:
            self._histograms[key] = LatencyHistogram()
        return self._histograms[key]

    # ------------------------------------------------------------ observation

    def observe_op(
        self,
        op: str,
        latency_seconds: float,
        records: int = 1,
        dataset: Optional[str] = None,
    ) -> None:
        """Record one operation sample, tagged with the current cluster phase.

        Normally invoked via ``op.*`` events from the instrumented dataset
        verbs, but callable directly by custom drivers.
        """
        histogram, per_op, records_counter = self._sink(op, dataset, records)
        histogram.record(latency_seconds)
        for counter in per_op:
            counter.increment()
        if records_counter is not None:
            records_counter.increment(records)
        self.clock.advance(latency_seconds)

    def observe_op_batch(
        self,
        op: str,
        latencies: Sequence[float],
        records_per_op: int = 1,
        dataset: Optional[str] = None,
    ) -> None:
        """Record a batch of same-op samples sharing the current phase.

        Produces *exactly* the state a loop of :meth:`observe_op` calls
        would — the histogram records the samples in order, the counters
        receive the same totals, and the clock advances through the same
        float-addition sequence — while paying the per-sample overhead
        (counter lookups, event dispatch) once per batch.  This is what the
        ``op.batch`` events of the batched workload driver feed.
        """
        if not latencies:
            return
        n = len(latencies)
        histogram, per_op, records_counter = self._sink(op, dataset, records_per_op)
        histogram.record_many(latencies)
        for counter in per_op:
            counter.increment(n)
        if records_counter is not None:
            records_counter.increment(records_per_op * n)
        self.clock.advance_many(latencies)

    def _sink(self, op: str, dataset: Optional[str], records: int) -> _Sink:
        """What a sample of ``op`` feeds in the current phase: its histogram,
        the counters that count it (``ops.total``, ``ops.<op>``,
        ``ops.<op>.<phase>`` and ``ops.dataset.<dataset>`` when tagged) and
        ``records.<op>`` when it carries records (else ``None``), resolved
        once per combination."""
        phase = self.phase
        key = (op, phase, dataset, bool(records))
        sink = self._sinks.get(key)
        if sink is None:
            names = ["ops.total", f"ops.{op}", f"ops.{op}.{phase}"]
            if dataset is not None:
                names.append(f"ops.dataset.{dataset}")
            sink = self._sinks[key] = (
                self.histogram(op, phase),
                [self.counter(name) for name in names],
                self.counter(f"records.{op}") if records else None,
            )
        return sink

    # ---------------------------------------------------------- event handlers

    def _on_op(self, event: Event) -> None:
        if event.name == "op.batch":
            return  # handled by _on_op_batch (also matched by "op.*")
        # "op.read" -> "read"
        op = event.name.split(".", 1)[1]
        self.observe_op(
            op,
            float(event.get("latency_seconds", 0.0)),
            records=int(event.get("records", 1)),
            dataset=event.get("dataset"),
        )

    def _on_op_batch(self, event: Event) -> None:
        self.observe_op_batch(
            event["op"],
            event["latencies"],
            records_per_op=int(event.get("records_per_op", 1)),
            dataset=event.get("dataset"),
        )

    def _on_rebalance_start(self, event: Event) -> None:
        self.phase = PHASE_REBALANCE
        self.counter("rebalance.started").increment()
        self.gauge("rebalance.in_flight").set(1)
        self._rebalance_started_at = self.clock.now

    def _on_rebalance_complete(self, event: Event) -> None:
        self.phase = PHASE_STEADY
        self.counter("rebalance.completed").increment()
        self.gauge("rebalance.in_flight").set(0)
        report = event.get("report")
        seconds = getattr(report, "simulated_seconds", None)
        if seconds is not None:
            self.histogram("rebalance", PHASE_REBALANCE).record(seconds)
            # Ops sampled while the rebalance ran already advanced the clock;
            # they were concurrent with the rebalance, so only the remainder
            # of its duration moves the timeline (no double counting).
            overlapped = self.clock.now - self._rebalance_started_at
            if seconds > overlapped:
                self.clock.advance(seconds - overlapped)

    def _on_rebalance_error(self, event: Event) -> None:
        self.phase = PHASE_STEADY
        self.counter("rebalance.errors").increment()
        self.gauge("rebalance.in_flight").set(0)

    def _on_rebalance_phase(self, event: Event) -> None:
        phase_name = event.get("phase", "unknown")
        self.counter(f"rebalance.phase.{phase_name}").increment()

    def _on_ingest_complete(self, event: Event) -> None:
        self.counter("ingest.records").increment(int(event.get("records", 0)))
        self.counter("ingest.splits").increment(int(event.get("splits", 0)))

    def _on_node_change(self, event: Event) -> None:
        nodes = event.get("nodes")
        if nodes is not None:
            self.gauge("cluster.nodes").set(int(nodes))

    def _on_dataset_create(self, event: Event) -> None:
        self.counter("datasets.created").increment()

    def _on_dataset_drop(self, event: Event) -> None:
        self.counter("datasets.dropped").increment()

    def _on_autopilot(self, event: Event) -> None:
        """Count every ``autopilot.*`` lifecycle event by its full name, so
        control-plane decisions appear in snapshots like any other telemetry
        (e.g. ``autopilot.decision``, ``autopilot.rebalance.complete``)."""
        self.counter(event.name).increment()
        if event.name == "autopilot.start":
            self.gauge("autopilot.active").set(1)
        elif event.name == "autopilot.stop":
            self.gauge("autopilot.active").set(0)

    def _on_chaos(self, event: Event) -> None:
        """Count every injected ``chaos.*`` fault by its full name.  These
        events only fire when a chaos engine is installed, so the standing
        subscription cannot perturb non-chaos snapshots."""
        self.counter(event.name).increment()

    def _on_retry(self, event: Event) -> None:
        """Count ``retry.*`` events by full name *and* per cluster phase
        (``retry.routing_miss.rebalance``), mirroring the ``ops.{op}.{phase}``
        idiom — a miss absorbed mid-rehash is the paper-relevant case."""
        self.counter(event.name).increment()
        self.counter(f"{event.name}.{self.phase}").increment()

    # ---------------------------------------------------------------- queries

    def latency(self, op: str, phase: Optional[str] = None) -> LatencyHistogram:
        """The latency histogram for ``op`` — one phase, or both merged.

        A read-only accessor: an (op, phase) that recorded nothing returns an
        empty histogram *without* registering one, so passive inspection
        never changes :meth:`snapshot` (the determinism contract).
        """
        if phase is not None:
            found = self._histograms.get((op, phase))
            return found if found is not None else LatencyHistogram()
        merged = LatencyHistogram()
        for (hist_op, _), histogram in sorted(self._histograms.items()):
            if hist_op == op:
                merged.merge(histogram)
        return merged

    def write_latency(self, phase: str) -> LatencyHistogram:
        """All write ops (insert/update/delete) merged, for one phase."""
        merged = LatencyHistogram()
        for op in WRITE_OPS:
            key = (op, phase)
            if key in self._histograms:
                merged.merge(self._histograms[key])
        return merged

    def latency_since(
        self, since: Optional[MetricsSnapshot], op: str, phase: str
    ) -> LatencyHistogram:
        """The ``(op, phase)`` samples recorded after ``since`` was taken.

        Lets a driver report per-run percentiles on a long-lived session whose
        registry accumulates across runs; ``since=None`` means "everything".
        """
        current = self._histograms.get((op, phase))
        if current is None:
            return LatencyHistogram()
        earlier = since.histograms.get(f"{op}[{phase}]") if since is not None else None
        return current.since(earlier)

    def write_latency_since(
        self, since: Optional[MetricsSnapshot], phase: str
    ) -> LatencyHistogram:
        """All write ops recorded after ``since``, merged, for one phase."""
        merged = LatencyHistogram()
        for op in WRITE_OPS:
            merged.merge(self.latency_since(since, op, phase))
        return merged

    def counter_value(self, name: str) -> float:
        """Read a counter without creating it (0 when never incremented).

        Unlike :meth:`counter`, passive reads never register a zero-valued
        counter, so inspection cannot perturb :meth:`snapshot` equality (the
        determinism contract) — and unlike :meth:`snapshot` it does not copy
        every histogram just to read one number.
        """
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def gauge_value(self, name: str) -> float:
        """Read a gauge without creating it (0 when never set).

        The gauge counterpart of :meth:`counter_value`, with the same
        passive-read guarantee: inspection (e.g. the timeline recorder
        sampling ``rebalance.in_flight``) cannot perturb :meth:`snapshot`
        equality.
        """
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else 0

    def ops_per_second(self, op: Optional[str] = None) -> float:
        """Throughput in operations per *simulated* second (read-only)."""
        if self.clock.now <= 0:
            return 0.0
        name = "ops.total" if op is None else f"ops.{op}"
        counter = self._counters.get(name)
        return (counter.value if counter is not None else 0) / self.clock.now

    # --------------------------------------------------------------- snapshot

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            phase=self.phase,
            simulated_seconds=self.clock.now,
            counters={name: c.value for name, c in sorted(self._counters.items())},
            gauges={name: g.value for name, g in sorted(self._gauges.items())},
            histograms={
                f"{op}[{phase}]": histogram.snapshot()
                for (op, phase), histogram in sorted(self._histograms.items())
            },
        )

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Percentile summaries per populated ``"op[phase]"`` histogram.

        The machine-readable companion of :meth:`report`: count, mean,
        p50/p95/p99 and max, in seconds.
        """
        return {
            f"{op}[{phase}]": histogram.summary()
            for (op, phase), histogram in sorted(self._histograms.items())
            if histogram.count
        }

    def report(self, unit: str = "ms") -> str:
        """An aligned latency table: one row per (op, phase) with percentiles."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        headers = [
            "op",
            "phase",
            "count",
            f"mean ({unit})",
            f"p50 ({unit})",
            f"p95 ({unit})",
            f"p99 ({unit})",
            f"max ({unit})",
        ]
        rows: List[List[Any]] = []
        ordered = sorted(
            self._histograms.items(),
            key=lambda item: (
                OP_NAMES.index(item[0][0]) if item[0][0] in OP_NAMES else len(OP_NAMES),
                item[0],
            ),
        )
        for (op, phase), histogram in ordered:
            if not histogram.count:
                continue
            summary = histogram.summary()
            rows.append(
                [
                    op,
                    phase,
                    int(summary["count"]),
                    summary["mean"] * scale,
                    summary["p50"] * scale,
                    summary["p95"] * scale,
                    summary["p99"] * scale,
                    summary["max"] * scale,
                ]
            )
        if not rows:
            return "(no operation samples recorded)"
        table = format_table(headers, rows)
        total = self._counters.get("ops.total")
        footer = (
            f"\n{int(total.value) if total is not None else 0} ops in "
            f"{self.clock.now:.3f} simulated seconds "
            f"({self.ops_per_second():.1f} ops/s), phase={self.phase}"
        )
        return table + footer

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = self._counters.get("ops.total")
        return (
            f"MetricsRegistry(phase={self.phase!r}, "
            f"ops={int(total.value) if total is not None else 0}, "
            f"sim_seconds={self.clock.now:.3f})"
        )
