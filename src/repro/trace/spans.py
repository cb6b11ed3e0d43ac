"""Spans: the hierarchical simulated-time skeleton of a traced run.

A :class:`Tracer` subscribes to the session's event bus and turns the event
stream into a tree of :class:`Span` values on the *simulated* clock — the
same clock the metrics registry advances, so spans line up with every latency
sample the run recorded.  The tree nests the way the run nests:

* ``session`` → one ``workload/<phase>`` span per driver schedule phase →
  one ``ops/<verb>`` span per op batch (``op.batch`` events map one-to-one,
  marked ``batched``, and a move window's replicated writes also
  ``concurrent``; single-op events — driver scans, deletes and inserts,
  client calls — are aggregated into maximal same-verb runs, which is
  deterministic because the event stream is),
* ``rebalance`` → one ``rebalance/<dataset>`` span per dataset operation →
  one span per protocol phase → one ``move/<bucket>`` span per shipped
  bucket, plus zero-duration marks for commit/abort,
* ``autopilot/rebalance`` brackets a policy-triggered resize, and every
  evaluation/decision appears as a zero-duration mark carrying the policy
  verdict.

The clock only advances when the cost model charges time, so span timing is
*reconstructed from event payloads and clock readings* rather than measured
around callbacks: an op span ends at the clock reading its event was
observed at and starts one latency earlier.

The rebalance subtree has one layout rule.  Phase spans are laid out
sequentially from the dataset span's start.  A phase whose
``rebalance.phase`` event arrives after the clock moved past that cursor —
foreground ops and concurrent writes charged latency while the phase ran on
the :mod:`repro.sim` event scheduler (see ``docs/CONCURRENCY.md``) — spans
the real clock window; a phase the clock did not move through (a drained
resize, initialization, finalization) spans the nominal ``seconds`` its
event reports.  Inside a real window each bucket move is anchored at the
clock reading its ``rebalance.bucket_move`` event fired and extends to the
next move's anchor (the last one to the end of the phase), so a move span
overlaps the op spans that ran beside it; inside a nominal window the moves
share the phase proportionally to their payload bytes.  The root
``rebalance`` span closes by the same rule: at the real clock when it moved
past the span's start, after the report's summed protocol seconds
otherwise.  Everything is derived from deterministic values, so the span
list is bit-identical across runs and hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..common.events import Event, Subscription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database

__all__ = ["Span", "Tracer"]

#: Span categories, doubling as Perfetto track assignments (see export).
CATEGORY_SESSION = "session"
CATEGORY_WORKLOAD = "workload"
CATEGORY_OPS = "ops"
CATEGORY_REBALANCE = "rebalance"
CATEGORY_AUTOPILOT = "autopilot"
CATEGORY_CHAOS = "chaos"


@dataclass
class Span:
    """One node of the span tree: a named simulated-time interval."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    #: Simulated seconds; zero-duration spans are instant marks.
    start: float
    duration: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe form embedded into recordings and trace files."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "dur": self.duration,
            "attrs": dict(self.attributes),
        }


@dataclass
class _DatasetRebalanceState:
    """Per-dataset cursor state while its protocol operation is in flight."""

    span: Span
    #: Where the next phase span begins (accumulated phase seconds).
    cursor: float
    #: Buffered ``rebalance.bucket_move`` payloads awaiting their phase span.
    pending_moves: List[Dict[str, Any]] = field(default_factory=list)


class _OpRun:
    """An in-progress aggregation of consecutive same-verb op samples."""

    __slots__ = ("op", "dataset", "parent_id", "start", "end", "count", "records")

    def __init__(
        self,
        op: str,
        dataset: Optional[str],
        parent_id: Optional[int],
        start: float,
        end: float,
        records: int,
    ) -> None:
        self.op = op
        self.dataset = dataset
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.count = 1
        self.records = records

    def matches(self, op: str, dataset: Optional[str]) -> bool:
        return self.op == op and self.dataset == dataset


class Tracer:
    """Builds the span tree of one session by listening to its event bus."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._subscriptions: List[Subscription] = []
        self._next_id = 0
        self._run: Optional[_OpRun] = None
        self._datasets: Dict[str, _DatasetRebalanceState] = {}
        self._attached = False
        self._finished = False

    # ------------------------------------------------------------------ wiring

    def attach(self) -> "Tracer":
        """Subscribe to the bus and open the root ``session`` span."""
        if self._attached:
            return self
        self._attached = True
        root = self._open("session", CATEGORY_SESSION, self._now())
        root.attributes["nodes"] = self.db.num_nodes
        handlers = (
            ("trace.phase.start", self._on_phase_start),
            ("trace.phase.end", self._on_phase_end),
            ("trace.autopilot.evaluate", self._on_autopilot_evaluate),
            ("op.read", self._on_op),
            ("op.insert", self._on_op),
            ("op.update", self._on_op),
            ("op.delete", self._on_op),
            ("op.scan", self._on_op),
            ("op.query", self._on_op),
            ("op.batch", self._on_op_batch),
            ("rebalance.start", self._on_rebalance_start),
            ("rebalance.dataset.start", self._on_dataset_start),
            ("rebalance.bucket_move", self._on_bucket_move),
            ("rebalance.phase", self._on_rebalance_phase),
            ("rebalance.commit", self._on_commit),
            ("rebalance.abort", self._on_abort),
            ("rebalance.dataset.complete", self._on_dataset_complete),
            ("rebalance.complete", self._on_rebalance_complete),
            ("rebalance.error", self._on_rebalance_error),
            ("recovery.complete", self._on_recovery),
            ("autopilot.decision", self._on_autopilot_decision),
            ("autopilot.rebalance.start", self._on_autopilot_rebalance_start),
            ("autopilot.rebalance.complete", self._on_autopilot_rebalance_complete),
            ("chaos.*", self._on_chaos),
            ("database.close", self._on_database_close),
        )
        events = self.db.events
        for pattern, handler in handlers:
            self._subscriptions.append(events.on(pattern, handler))
        return self

    def finish(self) -> List[Span]:
        """Close every open span at the current clock and unsubscribe."""
        if self._finished:
            return self.spans
        self._finished = True
        self._flush_run()
        now = self._now()
        while self._stack:
            span = self._stack.pop()
            span.duration = max(0.0, now - span.start)
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = []
        return self.spans

    def to_payload(self) -> List[Dict[str, Any]]:
        return [span.to_payload() for span in self.spans]

    # --------------------------------------------------------------- plumbing

    def _now(self) -> float:
        return self.db.metrics.clock.now

    def _open(self, name: str, category: str, start: float) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            start=start,
            duration=0.0,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, duration: float) -> None:
        span.duration = max(0.0, duration)
        # Pop to (and including) the span; tolerates a missing matching open.
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
            popped.duration = max(0.0, span.start + span.duration - popped.start)

    def _top(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _leaf(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        attributes: Dict[str, Any],
        parent_id: Optional[int] = None,
    ) -> Span:
        """Record a closed span without touching the open-span stack."""
        if parent_id is None:
            top = self._top()
            parent_id = top.span_id if top is not None else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            category=category,
            start=start,
            duration=max(0.0, duration),
            attributes=attributes,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def _flush_run(self) -> None:
        run = self._run
        if run is None:
            return
        self._run = None
        attributes: Dict[str, Any] = {"count": run.count, "records": run.records}
        if run.dataset is not None:
            attributes["dataset"] = run.dataset
        self._leaf(
            f"ops/{run.op}",
            CATEGORY_OPS,
            run.start,
            run.end - run.start,
            attributes,
            parent_id=run.parent_id,
        )

    # ------------------------------------------------------------- op samples

    def _on_op(self, event: Event) -> None:
        # event name is "op.<verb>"; by the time this handler runs the
        # metrics registry (always subscribed first) has advanced the clock
        # past this sample's latency.
        op = event.name[3:]
        latency = float(event["latency_seconds"])
        records = int(event.get("records", 1))
        dataset = event.get("dataset")
        end = self._now()
        run = self._run
        if run is not None and run.matches(op, dataset):
            run.end = end
            run.count += 1
            run.records += records
            return
        self._flush_run()
        top = self._top()
        self._run = _OpRun(
            op=op,
            dataset=dataset,
            parent_id=top.span_id if top is not None else None,
            start=max(0.0, end - latency),
            end=end,
            records=records,
        )

    def _on_op_batch(self, event: Event) -> None:
        self._flush_run()
        latencies = event["latencies"]
        total = 0.0
        for value in latencies:
            total += value
        end = self._now()
        attributes: Dict[str, Any] = {
            "count": int(event["count"]),
            "records": int(event["count"]) * int(event["records_per_op"]),
            "dataset": event["dataset"],
            "batched": True,
        }
        if event.get("concurrent"):
            # A move window's replicated writes: the Figure 7c marking.
            attributes["concurrent"] = True
        self._leaf(f"ops/{event['op']}", CATEGORY_OPS, max(0.0, end - total), total, attributes)

    # -------------------------------------------------------- workload phases

    def _on_phase_start(self, event: Event) -> None:
        self._flush_run()
        span = self._open(f"workload/{event['phase']}", CATEGORY_WORKLOAD, self._now())
        planned = event.get("ops")
        if planned is not None:
            span.attributes["planned_ops"] = int(planned)

    def _on_phase_end(self, event: Event) -> None:
        self._flush_run()
        name = f"workload/{event['phase']}"
        span = self._find_open(name)
        if span is None:
            return
        ops = event.get("ops")
        if ops is not None:
            span.attributes["ops"] = int(ops)
        self._close(span, self._now() - span.start)

    def _find_open(self, name: str) -> Optional[Span]:
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    # ----------------------------------------------------------- rebalancing

    def _on_rebalance_start(self, event: Event) -> None:
        self._flush_run()
        span = self._open("rebalance", CATEGORY_REBALANCE, self._now())
        span.attributes.update(
            strategy=event["strategy"],
            old_nodes=int(event["old_nodes"]),
            target_nodes=int(event["target_nodes"]),
        )

    def _on_dataset_start(self, event: Event) -> None:
        self._flush_run()
        dataset = event["dataset"]
        span = self._open(f"rebalance/{dataset}", CATEGORY_REBALANCE, self._now())
        span.attributes.update(dataset=dataset, rebalance_id=int(event["rebalance_id"]))
        self._datasets[dataset] = _DatasetRebalanceState(span=span, cursor=span.start)

    def _on_bucket_move(self, event: Event) -> None:
        state = self._datasets.get(event["dataset"])
        if state is not None:
            # The clock reading anchors the move when its phase spans a real
            # window; it never reaches the move span's attributes.
            state.pending_moves.append({**event.payload, "_at": self._now()})

    def _on_rebalance_phase(self, event: Event) -> None:
        self._flush_run()
        state = self._datasets.get(event["dataset"])
        if state is None:
            return
        seconds = float(event["seconds"])
        phase = event["phase"]
        now = self._now()
        # The phase event arriving after the clock moved past the cursor means
        # other work interleaved into this phase — span the real window.  A
        # phase the clock slept through keeps its nominal seconds.
        anchored = now > state.cursor
        duration = now - state.cursor if anchored else seconds
        span = self._leaf(
            f"phase/{phase}",
            CATEGORY_REBALANCE,
            state.cursor,
            duration,
            {"phase": phase, "dataset": event["dataset"]},
            parent_id=state.span.span_id,
        )
        if phase == "data_movement" and state.pending_moves:
            self._layout_moves(state.pending_moves, span, anchored=anchored)
            state.pending_moves = []
        state.cursor += duration

    def _layout_moves(
        self, moves: List[Dict[str, Any]], phase_span: Span, *, anchored: bool
    ) -> None:
        """Lay buffered bucket moves across the data-movement phase span.

        In a real window (``anchored``) each move span starts at the clock
        reading its ``rebalance.bucket_move`` event fired and runs to the next
        move's anchor — the last to the end of the phase — so a move's span
        covers the concurrent writes and foreground ops that genuinely
        interleaved with it.  In a nominal window the clock did not move, so
        each move gets a slice of the phase proportional to its payload bytes
        — a faithful picture of where the phase's time went, and
        deterministic because the move order and byte counts are.
        """
        weights = [max(0, int(move.get("payload_bytes", 0))) for move in moves]
        total = sum(weights)
        if total <= 0:
            weights = [1] * len(moves)
            total = len(moves)
        cursor = phase_span.start
        for index, (move, weight) in enumerate(zip(moves, weights, strict=True)):
            if anchored:
                cursor = float(move["_at"])
                next_edge = (
                    float(moves[index + 1]["_at"]) if index + 1 < len(moves) else phase_span.end
                )
                duration = max(0.0, next_edge - cursor)
            else:
                duration = phase_span.duration * (weight / total)
            attributes: Dict[str, Any] = {
                "bucket": move["bucket"],
                "source": move["source"],
                "destination": move["destination"],
            }
            if "records" in move:
                attributes["records"] = int(move["records"])
            if "payload_bytes" in move:
                attributes["payload_bytes"] = int(move["payload_bytes"])
            self._leaf(
                f"move/{move['bucket']}",
                CATEGORY_REBALANCE,
                cursor,
                duration,
                attributes,
                parent_id=phase_span.span_id,
            )
            cursor += duration

    def _on_commit(self, event: Event) -> None:
        state = self._datasets.get(event["dataset"])
        if state is None:
            return
        self._leaf(
            "commit",
            CATEGORY_REBALANCE,
            state.cursor,
            0.0,
            {"buckets_moved": int(event["buckets_moved"])},
            parent_id=state.span.span_id,
        )

    def _on_abort(self, event: Event) -> None:
        state = self._datasets.get(event["dataset"])
        if state is None:
            return
        self._leaf(
            "abort",
            CATEGORY_REBALANCE,
            state.cursor,
            0.0,
            {"reason": str(event["reason"])},
            parent_id=state.span.span_id,
        )

    def _on_dataset_complete(self, event: Event) -> None:
        self._flush_run()
        state = self._datasets.pop(event["dataset"], None)
        if state is None:
            return
        state.span.attributes["committed"] = bool(event["committed"])
        report = event.get("report")
        records_moved = getattr(report, "records_moved", None)
        if records_moved is not None:
            state.span.attributes["records_moved"] = int(records_moved)
        self._close(state.span, state.cursor - state.span.start)

    def _on_rebalance_complete(self, event: Event) -> None:
        self._flush_run()
        span = self._find_open("rebalance")
        if span is None:
            return
        span.attributes["new_nodes"] = int(event["new_nodes"])
        span.attributes["committed"] = bool(event["committed"])
        report = event.get("report")
        seconds = getattr(report, "simulated_seconds", None)
        bytes_shipped = getattr(report, "bytes_shipped", None)
        if bytes_shipped is not None:
            span.attributes["bytes_shipped"] = int(bytes_shipped)
        # The phase rule.  A scheduled resize can run the clock past the
        # report's summed seconds, and its anchored children must fit; a
        # drained one seen before the metrics registry charged it has not
        # moved the clock yet and takes the report's seconds.
        now = self._now()
        if now > span.start or seconds is None:
            duration = now - span.start
        else:
            duration = float(seconds)
        self._close(span, duration)

    def _on_rebalance_error(self, event: Event) -> None:
        self._flush_run()
        # Abandon any per-dataset state from the failed operation.
        self._datasets.clear()
        span = self._find_open("rebalance")
        if span is None:
            return
        span.attributes["error"] = str(event["error"])
        self._close(span, self._now() - span.start)

    def _on_recovery(self, event: Event) -> None:
        self._flush_run()
        self._leaf(
            "recovery",
            CATEGORY_REBALANCE,
            self._now(),
            0.0,
            {"outcomes": len(event["outcomes"])},
        )

    # -------------------------------------------------------------- autopilot

    def _on_autopilot_evaluate(self, event: Event) -> None:
        self._flush_run()
        attributes = {"policy": event["policy"], "action": event["action"]}
        reason = event.get("reason")
        if reason:
            attributes["reason"] = str(reason)
        self._leaf("autopilot/evaluate", CATEGORY_AUTOPILOT, self._now(), 0.0, attributes)

    def _on_autopilot_decision(self, event: Event) -> None:
        self._flush_run()
        self._leaf(
            "autopilot/decision",
            CATEGORY_AUTOPILOT,
            self._now(),
            0.0,
            {
                "policy": event["policy"],
                "action": event["action"],
                "target_nodes": int(event["target_nodes"]),
                "reason": str(event["reason"]),
                "outcome": event["outcome"],
            },
        )

    def _on_autopilot_rebalance_start(self, event: Event) -> None:
        self._flush_run()
        span = self._open("autopilot/rebalance", CATEGORY_AUTOPILOT, self._now())
        span.attributes.update(
            action=event["action"],
            target_nodes=int(event["target_nodes"]),
            reason=str(event["reason"]),
        )

    def _on_autopilot_rebalance_complete(self, event: Event) -> None:
        self._flush_run()
        span = self._find_open("autopilot/rebalance")
        if span is None:
            return
        span.attributes["new_nodes"] = int(event["new_nodes"])
        span.attributes["committed"] = bool(event["committed"])
        self._close(span, self._now() - span.start)

    # ------------------------------------------------------------------ chaos

    def _on_chaos(self, event: Event) -> None:
        """One leaf per injected fault: window faults span their declared
        ``[start, start + duration)`` interval on the simulated clock; a
        crash is an instant mark at the moment it fired."""
        self._flush_run()
        kind = event.name[len("chaos."):]
        payload = dict(event.payload)
        if "start" in payload and "duration" in payload:
            start = float(payload.pop("start"))
            duration = float(payload.pop("duration"))
        else:  # chaos.crash
            start = self._now()
            duration = 0.0
        self._leaf(f"chaos/{kind}", CATEGORY_CHAOS, start, duration, payload)

    # ---------------------------------------------------------------- session

    def _on_database_close(self, event: Event) -> None:
        self.finish()
