"""The workload driver: executes phased traffic through the client API.

A :class:`WorkloadDriver` turns a :class:`WorkloadSpec` (dataset, operation
mix, key distribution, phased schedule) into real operations against a
:class:`~repro.api.database.Database` session — ``get``/``insert``/``upsert``/
``delete``/``scan`` through the typed :class:`~repro.api.dataset.Dataset`
handles, so every operation flows through the same instrumented verbs client
code uses and lands in ``db.metrics`` tagged with the cluster phase in flight.

Determinism
-----------
One :class:`random.Random` seeded from ``ClusterConfig.seed`` (or an explicit
``seed=``) drives *every* stochastic choice in order: operation draws, key
draws, and the jittered feed-batch sizes used to flush buffered inserts.  Two
drivers with the same seed against identically configured databases therefore
produce bit-identical metric snapshots — the contract the determinism tests
pin down.

Traffic during a rebalance
--------------------------
A phase carrying ``rebalance={"add": 1}`` overlaps its traffic with the
resize, respecting the paper's Section V-A concurrency control:

* *Writes* ride the concurrent-write replication path (the same machinery as
  Figure 7c): they are applied at their source partitions and, for moving
  buckets, replicated to the destinations — a plain ``Dataset.insert`` during
  movement would be lost when the moved bucket is cleaned up at commit.
  Deletes drawn during a rebalance phase are downgraded to upserts because
  the replication channel carries upserting log records only.
* *Reads and scans* execute genuinely **while** the operation is between
  protocol steps: the old directory is still live and the source partitions
  still serve every moved bucket until the commit point, exactly as the
  protocol promises.

:meth:`WorkloadDriver._run_rebalance_phase` draws the phase plan up front
(:meth:`WorkloadDriver._draw_rebalance_plan`), then spawns
:meth:`Database.rebalance_steps` as an actor on an
:class:`~repro.sim.EventScheduler` sharing the metrics clock.  Every bucket
move yields the clock back to the driver, which paces the drawn reads/scans
evenly across the move windows, running each window's slice as one chunk
through :meth:`WorkloadDriver._execute_chunk`, like steady traffic.

Autopilot
---------
When the session has an :class:`~repro.control.autopilot.Autopilot` attached
(``db.autopilot(...)``), the driver's traffic *is* the control loop's input:
the engine re-evaluates its policy every N ``op.*`` events, so a hotspot
spike phase can organically trigger a policy-driven rebalance mid-run with no
``rebalance=`` key in the schedule.  The run's report carries the decisions
taken while it ran (``report.autopilot_decisions``).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from ..common.hashutil import hash_key
from ..metrics import MetricsSnapshot, PHASE_REBALANCE, PHASE_STEADY
from ..sim import EventScheduler
from .keygen import (
    DISTRIBUTIONS,
    KeyGenerator,
    ZipfianKeys,
    make_key_generator,
)
from .mixes import OperationMix, make_mix
from .schedule import Phase, Schedule, steady_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database
    from ..api.dataset import Dataset
    from ..cluster.reports import ClusterRebalanceReport
    from ..control.autopilot import AutopilotDecision

#: Ops a traffic phase draws and executes per chunk.  The chunk boundary is
#: where a ``max_seconds`` budget is checked and the op-stream position an
#: attached autopilot evaluates at, so either runs chunks of one op.
OP_CHUNK = 256


@dataclass(frozen=True)
class WorkloadSpec:
    """What traffic to drive: dataset, shape, and schedule."""

    #: Dataset the traffic targets (created by :meth:`WorkloadDriver.prepare`
    #: when missing and ``create_dataset`` is True).
    dataset: str = "traffic"
    #: Primary-key field name of the driver's records.
    primary_key: str = "k"
    #: Records preloaded before the schedule starts (the initial keyspace).
    initial_records: int = 1000
    #: Approximate payload bytes per record.
    payload_bytes: int = 64
    #: Default operation mix (YCSB preset name or :class:`OperationMix`).
    mix: Union[str, OperationMix] = "B"
    #: Default key distribution (name or :class:`KeyGenerator` instance).
    keys: Union[str, KeyGenerator] = "zipfian"
    #: The phased schedule; None means one steady phase of ``default_ops``.
    schedule: Optional[Schedule] = None
    #: Ops for the implicit steady schedule when ``schedule`` is None.
    default_ops: int = 1000
    #: Mean feed batch size for buffered inserts (preload and insert ops).
    batch_size: int = 32
    #: Relative jitter applied to each flush's batch size, drawn from the
    #: driver RNG (a seeded stochastic path; 0 disables the jitter).
    batch_jitter: float = 0.25
    #: Keys spanned by one scan operation.
    scan_span: int = 16
    #: Create the dataset if it does not exist yet.
    create_dataset: bool = True

    def __post_init__(self) -> None:
        if self.initial_records < 0:
            raise ValueError("initial_records must be non-negative")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.batch_jitter < 1.0:
            raise ValueError("batch_jitter must be in [0, 1)")
        if self.scan_span < 1:
            raise ValueError("scan_span must be at least 1")
        if self.default_ops < 0:
            raise ValueError("default_ops must be non-negative")


@dataclass
class PhaseResult:
    """Operation counts observed while one phase ran."""

    name: str
    ops: int = 0
    reads: int = 0
    reads_found: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    scans: int = 0
    scan_rows: int = 0
    #: Simulated seconds the metrics clock advanced during the phase.
    simulated_seconds: float = 0.0
    rebalance_report: "Optional[ClusterRebalanceReport]" = None

    @property
    def reads_missing(self) -> int:
        return self.reads - self.reads_found


@dataclass
class WorkloadReport:
    """Everything one :meth:`WorkloadDriver.run` produced."""

    spec: WorkloadSpec
    seed: int
    phases: List[PhaseResult] = field(default_factory=list)
    #: Frozen registry view at the end of the run — cumulative across runs on
    #: the same session, identical across same-seed fresh sessions (the
    #: determinism contract).
    snapshot: Optional[MetricsSnapshot] = None
    #: p99 write latency (seconds) per cluster phase, over *this run's*
    #: samples only — the Figure 7c metric.
    write_p99_seconds: Dict[str, float] = field(default_factory=dict)
    read_p99_seconds: Dict[str, float] = field(default_factory=dict)
    total_ops: int = 0
    simulated_seconds: float = 0.0
    #: Decisions the session's autopilot engine took *during this run* (empty
    #: when no engine is attached) — how "phased traffic organically triggers
    #: a rebalance" shows up in the report.
    autopilot_decisions: "List[AutopilotDecision]" = field(default_factory=list)
    #: How many of those decisions executed a rebalance.
    autopilot_rebalances: int = 0

    def phase(self, name: str) -> PhaseResult:
        for result in self.phases:
            if result.name == name:
                return result
        raise KeyError(f"no phase named {name!r} in this report")

    def summary(self) -> str:
        lines = [
            f"workload {self.spec.dataset!r}: {self.total_ops} ops in "
            f"{self.simulated_seconds:.3f} simulated seconds (seed={self.seed})"
        ]
        for result in self.phases:
            marker = " [rebalance]" if result.rebalance_report is not None else ""
            lines.append(
                f"  {result.name}: {result.ops} ops "
                f"(r={result.reads} i={result.inserts} u={result.updates} "
                f"d={result.deletes} s={result.scans}){marker}"
            )
        if self.autopilot_decisions:
            lines.append(
                f"  autopilot: {len(self.autopilot_decisions)} decisions, "
                f"{self.autopilot_rebalances} rebalances triggered"
            )
        for phase_name in (PHASE_STEADY, PHASE_REBALANCE):
            p99 = self.write_p99_seconds.get(phase_name)
            if p99 is not None:
                lines.append(f"  write p99 [{phase_name}]: {p99 * 1e3:.3f} ms")
        return "\n".join(lines)


class WorkloadDriver:
    """Drives one :class:`WorkloadSpec` against an open database session."""

    def __init__(
        self,
        db: "Database",
        spec: Optional[WorkloadSpec] = None,
        seed: Optional[int] = None,
        *,
        scheduler: "Optional[EventScheduler]" = None,
        **spec_overrides: Any,
    ) -> None:
        if spec is not None and spec_overrides:
            raise ValueError("pass either a WorkloadSpec or keyword overrides, not both")
        self.db = db
        self.spec = spec or WorkloadSpec(**spec_overrides)
        #: Every stochastic choice (op draws, key draws, batch jitter) comes
        #: from this one RNG, seeded from the cluster config by default.
        self.seed = db.config.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.metrics = db.metrics
        #: Rebalance phases run on this scheduler, by default one on the
        #: metrics clock so bucket moves and foreground ops share a timeline.
        self.scheduler = EventScheduler(self.metrics.clock) if scheduler is None else scheduler
        self._mix = make_mix(self.spec.mix)
        self._keys = self._make_key_generator(self.spec.keys)
        #: The next primary key an insert op will allocate; keys below this
        #: bound form the live keyspace the read/update/scan draws cover.
        self.next_key = 0
        self._pending_rows: List[Dict[str, Any]] = []
        self._batch_target = self._draw_batch_target()
        self._prepared = False
        self._dataset_handle: "Optional[Dataset]" = None
        #: ``hash_key`` of every key index a read has drawn (see _hashes_of).
        self._hash_column = array("Q")

    # -------------------------------------------------------------- plumbing

    @property
    def dataset(self) -> "Dataset":
        # Handles are stateless (every verb re-resolves the live runtime), so
        # one cached handle serves the whole run — resolved per access, this
        # property was a measurable slice of the op loop.
        handle = self._dataset_handle
        if handle is None:
            handle = self._dataset_handle = self.db.dataset(self.spec.dataset)
        return handle

    def _make_key_generator(self, keys: Union[str, KeyGenerator]) -> KeyGenerator:
        """Build a generator from a distribution name or pass an instance through."""
        if isinstance(keys, KeyGenerator):
            return keys
        name = str(keys).lower()
        if name not in DISTRIBUTIONS:
            # Let make_key_generator raise its uniform error message.
            return make_key_generator(name)
        if name == "zipfian":
            # Zipfian needs its keyspace size up front for the zeta constant.
            # Use at least a 1024-rank grid so a small (or empty) preload does
            # not degenerate to hammering a handful of keys; draws fold into
            # the live keyspace, and stretch across it if inserts outgrow the
            # grid (see ZipfianKeys.next_index).
            return ZipfianKeys(num_keys=max(1024, self.spec.initial_records))
        return make_key_generator(name)

    def _phase_keys(self, phase: Phase) -> KeyGenerator:
        """The phase's key-distribution override, or the workload default."""
        if phase.keys is None:
            return self._keys
        return self._make_key_generator(phase.keys)

    def _draw_batch_target(self) -> int:
        jitter = self.spec.batch_jitter
        if jitter == 0.0:
            return self.spec.batch_size
        scale = 1.0 + jitter * (2.0 * self.rng.random() - 1.0)
        return max(1, round(self.spec.batch_size * scale))

    def _row(self, index: int) -> Dict[str, Any]:
        payload = f"{index:010d}"
        if self.spec.payload_bytes > len(payload):
            payload += "x" * (self.spec.payload_bytes - len(payload))
        return {self.spec.primary_key: index, "payload": payload}

    @property
    def durable_keys(self) -> int:
        """Size of the *flushed* keyspace — what reads can actually find.

        Keys of inserts still sitting in the client-side batch buffer are
        excluded, otherwise "read latest" workloads (YCSB D) would mostly
        probe rows that have not reached the cluster yet.
        """
        return max(1, self.next_key - len(self._pending_rows))

    # --------------------------------------------------------------- prepare

    def prepare(self) -> None:
        """Create (if needed) and preload the dataset; idempotent."""
        if self._prepared:
            return
        if self.spec.dataset not in self.db.dataset_names():
            if not self.spec.create_dataset:
                raise ValueError(
                    f"dataset {self.spec.dataset!r} does not exist and "
                    "create_dataset is False"
                )
            self.db.create_dataset(self.spec.dataset, primary_key=self.spec.primary_key)
        dataset = self.dataset
        self.next_key = dataset.count()
        remaining = self.spec.initial_records - self.next_key
        cluster = self.db.cluster
        while remaining > 0:
            batch = min(remaining, self._draw_batch_target())
            rows = [self._row(self.next_key + offset) for offset in range(batch)]
            # Preload is setup, not traffic: feed directly (the documented
            # escape hatch) so bulk-load batches do not contaminate the
            # steady-phase write histograms the Figure 7c comparison reads.
            cluster.feed(self.spec.dataset, batch_size=batch).ingest(rows)
            self.next_key += batch
            remaining -= batch
        self._prepared = True

    # ------------------------------------------------------------------- run

    def run(self) -> WorkloadReport:
        """Execute the whole schedule and return the workload report.

        ``report.simulated_seconds`` and the percentile fields cover *this
        run's traffic only*: the duration is the metrics-clock delta across
        the run (the preload's raw-feed bulk load emits no op samples, so it
        does not advance the clock), and the latency populations are deltas
        against the registry state at run start — back-to-back runs on one
        session each report their own numbers.  ``report.snapshot`` is the
        session registry at the end of the run — cumulative across runs on
        the same session, identical across same-seed fresh sessions.
        """
        run_started = self.metrics.clock.now
        since = self.metrics.snapshot()
        self.prepare()
        schedule = self.spec.schedule or steady_schedule(self.spec.default_ops)
        report = WorkloadReport(spec=self.spec, seed=self.seed)
        # The autopilot engine (if one is attached) evaluates off the op.*
        # events this run emits; remember where its log stood so the report
        # can carry just this run's decisions.
        pilot = getattr(self.db, "autopilot_engine", None)
        decisions_before = len(pilot.decisions) if pilot is not None else 0
        rebalances_before = pilot.rebalances_triggered if pilot is not None else 0
        events = self.db.events
        for phase in schedule:
            # Tracing hook points: bracket the phase for the span tree. The
            # probe is a cached dict hit, so untraced runs skip the payload.
            if events.has_subscribers("trace.phase.start"):
                events.emit("trace.phase.start", phase=phase.name, ops=phase.ops)
            started = self.metrics.clock.now
            mix = make_mix(phase.mix) if phase.mix is not None else self._mix
            result = PhaseResult(name=phase.name)
            if phase.rebalance is not None:
                self._run_rebalance_phase(phase, mix, self._phase_keys(phase), result)
            else:
                self._run_traffic_phase(phase, mix, self._phase_keys(phase), result)
            result.simulated_seconds = self.metrics.clock.now - started
            report.phases.append(result)
            if events.has_subscribers("trace.phase.end"):
                events.emit(
                    "trace.phase.end",
                    phase=phase.name,
                    ops=result.ops,
                    seconds=result.simulated_seconds,
                )
        self._flush_inserts()
        report.total_ops = sum(result.ops for result in report.phases)
        report.simulated_seconds = self.metrics.clock.now - run_started
        for phase_name in (PHASE_STEADY, PHASE_REBALANCE):
            writes = self.metrics.write_latency_since(since, phase_name)
            if writes.count:
                report.write_p99_seconds[phase_name] = writes.percentile(0.99)
            reads = self.metrics.latency_since(since, "read", phase_name)
            if reads.count:
                report.read_p99_seconds[phase_name] = reads.percentile(0.99)
        if pilot is not None:
            report.autopilot_decisions = list(pilot.decisions[decisions_before:])
            report.autopilot_rebalances = pilot.rebalances_triggered - rebalances_before
        report.snapshot = self.metrics.snapshot()
        return report

    # ------------------------------------------------------- steady traffic

    def _run_traffic_phase(
        self, phase: Phase, mix: OperationMix, keys: KeyGenerator, result: PhaseResult
    ) -> None:
        budget = phase.max_seconds
        per_op = budget is not None or getattr(self.db, "autopilot_engine", None) is not None
        chunk_size = 1 if per_op else OP_CHUNK
        started = self.metrics.clock.now
        remaining = phase.ops
        while remaining > 0:
            if budget is not None and self.metrics.clock.now - started >= budget:
                break
            chunk = min(chunk_size, remaining)
            self._execute_chunk(self._draw_chunk(chunk, mix, keys, result), result)
            remaining -= chunk
        self._flush_inserts()

    def _draw_chunk(
        self,
        count: int,
        mix: OperationMix,
        keys: KeyGenerator,
        result: PhaseResult,
        flush: bool = True,
    ) -> List[Tuple[str, Any]]:
        """Draw ``count`` ops worth of randomness into an action plan.

        Consumes the driver RNG as one op at a time does — op draw, then key
        draw, then (at insert-buffer flush points) the next jittered
        batch-target draw — so the stream is the same whatever the chunk
        size.  Execution performs no RNG draws, which is what makes
        separating "draw" from "do" safe.

        The plan is a list of actions: ``("read", key)``, ``("scan", low)``,
        ``("update", row)``, ``("delete", key)``, ``("buffer", row)`` for a
        buffered insert, and ``("flush", next_batch_target)`` where the insert
        buffer reaches its target: it is flushed and the target redrawn.
        ``flush=False`` draws no flush points, so keys are drawn from the
        keyspace durable when the draw began.

        When the mix gives inserts no weight and the key generator maps one
        uniform to one index (it defines ``indices_of``), the stream is exactly
        two uniforms per op over a fixed keyspace, so the chunk is drawn as
        columns: ``2 * count`` uniforms at once, the ops from the even slots
        (:meth:`OperationMix.verbs_of`) and the keys from the odd ones.
        Anything else — inserts, which move the keyspace and add flush
        draws, or a generator drawing through ``randrange`` — goes op by op.
        Both yield the same plan, counters and RNG state.
        """
        indices_of = getattr(keys, "indices_of", None)
        if indices_of is None or mix.insert:
            return self._draw_ops(count, mix, keys, result, flush)
        draw = self.rng.random
        uniforms = [draw() for _ in range(2 * count)]
        verbs = mix.verbs_of(uniforms[0::2])
        indices = indices_of(uniforms[1::2], max(1, self.next_key - len(self._pending_rows)))
        result.ops += count
        result.reads += verbs.count("read")
        result.deletes += verbs.count("delete")
        result.scans += verbs.count("scan")
        updates = verbs.count("update")
        if not updates:
            return list(zip(verbs, indices))
        result.updates += updates
        row = self._row
        return [
            ("update", row(key)) if verb == "update" else (verb, key)
            for verb, key in zip(verbs, indices)
        ]

    def _draw_ops(
        self,
        count: int,
        mix: OperationMix,
        keys: KeyGenerator,
        result: PhaseResult,
        flush: bool,
    ) -> List[Tuple[str, Any]]:
        """:meth:`_draw_chunk` one op at a time: any mix, any generator."""
        rng = self.rng
        choose = mix.choose
        next_index = keys.next_index
        plan: List[Tuple[str, Any]] = []
        pending = len(self._pending_rows)
        batch_target = self._batch_target
        for _ in range(count):
            op = choose(rng)
            result.ops += 1
            if op == "insert":
                plan.append(("buffer", self._row(self.next_key)))
                self.next_key += 1
                pending += 1
                result.inserts += 1
                if flush and pending >= batch_target:
                    # This insert fills the buffer: the jittered batch target
                    # is redrawn now, right after the insert's draw, and the
                    # buffer is flushed at execution time.
                    batch_target = self._draw_batch_target()
                    plan.append(("flush", batch_target))
                    pending = 0
                continue
            key = next_index(rng, max(1, self.next_key - pending))
            if op == "read":
                plan.append(("read", key))
                result.reads += 1
            elif op == "update":
                plan.append(("update", self._row(key)))
                result.updates += 1
            elif op == "delete":
                plan.append(("delete", key))
                result.deletes += 1
            elif op == "scan":
                plan.append(("scan", key))
                result.scans += 1
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown operation {op!r}")
        return plan

    def _execute_chunk(self, plan: List[Tuple[str, Any]], result: PhaseResult) -> None:
        """Execute a drawn plan, dispatching maximal same-verb runs as batches.

        Consecutive reads go through :meth:`Dataset.get_many` and consecutive
        updates through :meth:`Dataset.upsert_each` — one ``op.batch``
        telemetry event per run, identical per-op latencies.  Ops stay in
        drawn order, so storage state (and therefore every latency sample)
        evolves exactly as it would one op at a time.  Reads and scans are
        counted where they are drawn; this only adds what they found.
        """
        dataset = self.dataset
        for verb, run in groupby(plan, key=itemgetter(0)):
            args = [arg for _, arg in run]
            if verb == "read":
                found = dataset.get_many(args, hashes=self._hashes_of(args))
                result.reads_found += len(found) - found.count(None)
            elif verb == "update":
                dataset.upsert_each(args)
            elif verb == "buffer":
                self._pending_rows.extend(args)
            else:
                for arg in args:
                    if verb == "flush":
                        rows, self._pending_rows = self._pending_rows, []
                        dataset.insert(rows, batch_size=len(rows))
                        self._batch_target = arg
                    elif verb == "delete":
                        dataset.delete(arg)
                    else:  # scan
                        scanned = dataset.scan(low=arg, high=arg + self.spec.scan_span)
                        result.scan_rows += len(list(scanned))

    def _hashes_of(self, keys: List[int]) -> List[int]:
        """``hash_key`` of each drawn key, each key hashed once per driver.

        The hashes live in a column over the dense keyspace (0 marks a key
        not hashed yet; a key whose hash is 0 is merely hashed again), grown
        with the keyspace: every drawn index is below ``max(1, next_key)``.
        """
        column = self._hash_column
        missing = max(1, self.next_key) - len(column)
        if missing > 0:
            column.frombytes(bytes(column.itemsize * missing))
        hashes = list(map(column.__getitem__, keys))
        if 0 in hashes:
            for position, key in enumerate(keys):
                if not hashes[position]:
                    # The run may draw a key twice: the first fill serves both.
                    hashes[position] = column[key] = column[key] or hash_key(key)
        return hashes

    def _flush_inserts(self) -> None:
        if not self._pending_rows:
            return
        rows, self._pending_rows = self._pending_rows, []
        self.dataset.insert(rows, batch_size=len(rows))
        # Redraw the jittered batch target for the next flush (seeded).
        self._batch_target = self._draw_batch_target()

    # ------------------------------------------------- traffic during resize

    def _draw_rebalance_plan(
        self, phase: Phase, mix: OperationMix, keys: KeyGenerator, result: PhaseResult
    ) -> Tuple[List[Dict[str, Any]], List[Tuple[str, Any]]]:
        """Partition the phase's draws into replicated writes and foreground.

        Writes ride the replication path, reads/scans execute mid-protocol.
        Deletes are downgraded to upserts: the rebalance replication channel
        carries upserting log records only (Section V-A).  Draws target the
        keyspace durable at phase start — keys allocated to this phase's
        concurrent inserts are only applied mid-movement, so reads probing
        them would mostly miss.  The whole plan is drawn before the protocol
        starts, so scheduling changes *when* ops execute, never *which*.
        """
        write_rows: List[Dict[str, Any]] = []
        foreground: List[Tuple[str, Any]] = []
        for verb, arg in self._draw_chunk(phase.ops, mix, keys, result, flush=False):
            if verb in ("read", "scan"):
                foreground.append((verb, arg))
            else:  # an insert's or update's row, or a deleted key
                write_rows.append(self._row(arg) if verb == "delete" else arg)
        result.updates += result.deletes
        result.deletes = 0
        return write_rows, foreground

    def _foreground_quota(self, segment: Any, pending: int) -> int:
        """How many queued foreground ops run in the window ``segment`` opened.

        Every window granted is genuinely mid-rebalance: the directory swap
        and bucket cleanup happen at commit, so the sources still serve
        (finalization yields after the commit and gets nothing).  The ops are
        spread evenly over the bucket moves, and the trailing replication
        window takes what is left.
        """
        kind = getattr(segment, "kind", None)
        if kind == "move":
            return -(-pending // (segment.remaining + 1))
        if kind == "concurrent_writes":
            return pending
        return 0

    def _run_rebalance_phase(
        self, phase: Phase, mix: OperationMix, keys: KeyGenerator, result: PhaseResult
    ) -> None:
        """One rebalance phase: the protocol generator plus foreground windows.

        Strategies that open no window (the offline ``Hashing`` baseline,
        aborted runs) fall through to the post-protocol drain.
        """
        assert phase.rebalance is not None
        self._flush_inserts()
        write_rows, foreground = self._draw_rebalance_plan(phase, mix, keys, result)
        cursor = 0
        per_op = getattr(self.db, "autopilot_engine", None) is not None

        def run_foreground(count: int) -> None:
            # One chunk per window, or per op under an autopilot (see OP_CHUNK).
            nonlocal cursor
            window, cursor = foreground[cursor : cursor + count], cursor + count
            step = 1 if per_op else max(1, count)
            for start in range(0, count, step):
                self._execute_chunk(window[start : start + step], result)

        def protocol() -> Any:
            # Phase-scheduled rebalances are exempt from chaos crash plans
            # (like autopilot ones): scheduled kills target the scenario's
            # explicit rebalance steps, which can pair with a recover step.
            result.rebalance_report = yield from self.db.rebalance_steps(
                **dict(phase.rebalance),
                concurrent_rows={self.spec.dataset: write_rows} if write_rows else None,
                arm_chaos=False,
            )

        def rebalance_actor() -> Any:
            for segment in protocol():
                # Charges the segment to the shared timeline and resumes at
                # the end of the window.
                yield segment
                run_foreground(self._foreground_quota(segment, len(foreground) - cursor))

        self.scheduler.spawn(f"rebalance:{phase.name}", rebalance_actor())
        self.scheduler.run()
        # Foreground ops the protocol produced no window for still execute,
        # tagged with the phase the registry is in by then.
        run_foreground(len(foreground) - cursor)


def run_workload(
    db: "Database",
    spec: Optional[WorkloadSpec] = None,
    seed: Optional[int] = None,
    **spec_overrides: Any,
) -> WorkloadReport:
    """One-call convenience: build a driver, run it, return the report."""
    return WorkloadDriver(db, spec, seed=seed, **spec_overrides).run()
