"""Tests for the workload driver's one op pipeline.

Every op the driver issues is drawn into a plan (chunked RNG draws) and
executed by ``_execute_chunk`` (cached bound verbs, one ``op.batch``
telemetry event per same-verb run).  It must be observationally identical to
the per-op loop it replaced: same key/op stream off the seeded RNG, same
metric snapshots, same phase op counts.  That loop lives on below as a test
oracle, :class:`PerOpDriver`; these tests pin the equivalence, the chunk-size
rule, and the event counts of reads issued mid-rebalance.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterConfig, Database, WorkloadDriver, WorkloadSpec
from repro.sim import EventScheduler
from repro.workload import OperationMix, Phase, Schedule
from repro.workload import driver as driver_module
from repro.workload.driver import PhaseResult
from repro.workload.keygen import HotspotKeys, LatestKeys, UniformKeys, ZipfianKeys
from repro.workload.mixes import make_mix


class PerOpDriver(WorkloadDriver):
    """Reference runner: one RNG draw and one single-op verb per op.

    The per-op loop the chunked pipeline replaced — ``dataset.get`` and
    ``dataset.upsert([row], batch_size=1)``, one ``op.*`` event each — kept
    here as the oracle the pipeline must match sample for sample.  Rebalance
    phases keep the production protocol runner on the driver's event
    scheduler, with the per-op draw of the phase plan and one verb call per
    foreground op.
    """

    def _run_traffic_phase(self, phase, mix, keys, result):
        started = self.metrics.clock.now
        for _ in range(phase.ops):
            if (
                phase.max_seconds is not None
                and self.metrics.clock.now - started >= phase.max_seconds
            ):
                break
            self._execute_op(mix.choose(self.rng), keys, result)
        self._flush_inserts()

    def _execute_op(self, op, keys, result):
        dataset = self.dataset
        result.ops += 1
        if op == "read":
            key = keys.next_index(self.rng, self.durable_keys)
            record = dataset.get(key)
            result.reads += 1
            if record is not None:
                result.reads_found += 1
        elif op == "insert":
            self._pending_rows.append(self._row(self.next_key))
            self.next_key += 1
            result.inserts += 1
            if len(self._pending_rows) >= self._batch_target:
                self._flush_inserts()
        elif op == "update":
            key = keys.next_index(self.rng, self.durable_keys)
            dataset.upsert([self._row(key)], batch_size=1)
            result.updates += 1
        elif op == "delete":
            key = keys.next_index(self.rng, self.durable_keys)
            dataset.delete(key)
            result.deletes += 1
        elif op == "scan":
            low = keys.next_index(self.rng, self.durable_keys)
            rows = list(dataset.scan(low=low, high=low + self.spec.scan_span))
            result.scans += 1
            result.scan_rows += len(rows)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown operation {op!r}")

    def _draw_rebalance_plan(self, phase, mix, keys, result):
        durable = self.durable_keys
        write_rows = []
        foreground = []
        for _ in range(phase.ops):
            op = mix.choose(self.rng)
            result.ops += 1
            if op == "insert":
                write_rows.append(self._row(self.next_key))
                self.next_key += 1
                result.inserts += 1
            elif op in ("update", "delete"):
                key = keys.next_index(self.rng, durable)
                write_rows.append(self._row(key))
                result.updates += 1
            elif op == "scan":
                foreground.append(("scan", keys.next_index(self.rng, durable)))
                result.scans += 1
            else:
                foreground.append(("read", keys.next_index(self.rng, durable)))
                result.reads += 1
        return write_rows, foreground

    def _execute_chunk(self, plan, result):
        # Only rebalance phases get here: their drawn foreground plan,
        # executed as one ``get`` / ``scan`` per queued op.
        dataset = self.dataset
        for verb, key in plan:
            if verb == "scan":
                result.scan_rows += len(
                    list(dataset.scan(low=key, high=key + self.spec.scan_span))
                )
            elif dataset.get(key) is not None:
                result.reads_found += 1


def open_db(strategy="dynahash"):
    return Database(ClusterConfig(num_nodes=3, partitions_per_node=2, strategy=strategy))


def run_spec(driver_cls=WorkloadDriver, **overrides):
    db = open_db()
    spec = WorkloadSpec(dataset="t", initial_records=400, default_ops=500, **overrides)
    report = driver_cls(db, spec).run()
    snapshot = report.snapshot
    db.close()
    return report, snapshot


PHASE_COUNTS = (
    "ops", "reads", "reads_found", "inserts", "updates", "deletes", "scans", "scan_rows"
)


def assert_same_phases(report, reference):
    assert report.total_ops == reference.total_ops
    for phase, expected in zip(report.phases, reference.phases, strict=True):
        for name in PHASE_COUNTS:
            assert getattr(phase, name) == getattr(expected, name), (phase.name, name)


CRUD = OperationMix(name="crud", read=0.4, insert=0.2, update=0.2, delete=0.2)

RESIZE_SCHEDULE = Schedule(
    (
        Phase(name="warm", ops=120),
        Phase(name="resize", ops=120, rebalance={"add": 1}),
        Phase(name="cool", ops=120),
    )
)


class TestChunkedEqualsPerOpOracle:
    @pytest.mark.parametrize("mix", ["A", "B", "D", "E"])
    def test_same_seed_same_snapshot(self, mix):
        report, snapshot = run_spec(mix=mix)
        reference_report, reference = run_spec(PerOpDriver, mix=mix)
        assert snapshot == reference
        assert_same_phases(report, reference_report)

    def test_equivalence_with_deletes_in_mix(self):
        report, snapshot = run_spec(mix=CRUD)
        reference_report, reference = run_spec(PerOpDriver, mix=CRUD)
        assert snapshot == reference
        assert report.phases[0].deletes == reference_report.phases[0].deletes > 0

    def test_tiny_chunk_still_equivalent(self, monkeypatch):
        _, wide = run_spec(mix="A")
        monkeypatch.setattr(driver_module, "OP_CHUNK", 3)
        _, chunked = run_spec(mix="A")
        assert chunked == wide

    @pytest.mark.parametrize("mix", ["A", "E", CRUD], ids=["A", "E", "crud"])
    def test_rebalance_schedule_equivalent(self, mix):
        report, snapshot = run_spec(mix=mix, schedule=RESIZE_SCHEDULE)
        reference_report, reference = run_spec(PerOpDriver, mix=mix, schedule=RESIZE_SCHEDULE)
        assert snapshot == reference
        assert_same_phases(report, reference_report)

    @pytest.mark.parametrize("mix", ["B", "D", "E", CRUD], ids=["B", "D", "E", "crud"])
    def test_rebalance_plan_draws_match_per_op_oracle(self, mix):
        # Inserts, updates and deletes become replicated rows, reads and
        # scans the foreground plan, from the keyspace durable at phase start.
        plans = []
        for driver_cls in (WorkloadDriver, PerOpDriver):
            db = open_db()
            driver = driver_cls(db, WorkloadSpec(dataset="t", initial_records=300, mix=mix))
            driver.prepare()
            result = PhaseResult(name="resize")
            phase = Phase(name="resize", ops=400, rebalance={"add": 1})
            plan = driver._draw_rebalance_plan(phase, make_mix(mix), driver._keys, result)
            counts = [getattr(result, name) for name in PHASE_COUNTS]
            plans.append((plan, counts, driver.next_key, driver.rng.getstate()))
            db.close()
        assert plans[0] == plans[1]
        write_rows, foreground = plans[0][0]
        assert write_rows and foreground


#: Mixes the draw property samples: single-verb (reads, or scans only),
#: zero-weight verbs between positive ones, deletes, and insert-bearing mixes.
DRAW_MIXES = (
    make_mix("C"),
    OperationMix(name="scans", scan=1.0),
    OperationMix(name="gaps", read=0.5, scan=0.5),
    make_mix("A"),
    OperationMix(name="no-insert", read=0.3, update=0.3, delete=0.2, scan=0.2),
    make_mix("D"),
    make_mix("E"),
    CRUD,
)

#: Key generators the property samples, built fresh per example: zipfian
#: over 1, 2 and many keys, plain and scrambled, latest, hotspot, uniform.
DRAW_GENERATORS = (
    lambda: ZipfianKeys(num_keys=1),
    lambda: ZipfianKeys(num_keys=2),
    lambda: ZipfianKeys(num_keys=5000),
    lambda: ZipfianKeys(num_keys=1, scrambled=True),
    lambda: ZipfianKeys(num_keys=2, scrambled=True),
    lambda: ZipfianKeys(num_keys=5000, scrambled=True),
    lambda: LatestKeys(),
    lambda: LatestKeys(window=3),
    lambda: HotspotKeys(),
    lambda: UniformKeys(),
)

#: The live keyspace a draw covers, relative to the generator's own size.
LIMITS = {
    "empty": lambda size: 0,
    "one": lambda size: 1,
    "below": lambda size: max(1, size // 2),
    "equal": lambda size: size,
    "above": lambda size: 3 * size + 1,
}

#: The PhaseResult counter each keyed verb bumps.
VERB_COUNTERS = {"read": "reads", "update": "updates", "delete": "deletes", "scan": "scans"}


def draw_op_by_op(driver, count, mix, keys, result, flush):
    """The draw one op at a time, as the driver defines it: op draw, key draw
    from the keyspace durable at that op, and the jittered batch-target
    redraw at every insert-buffer flush point."""
    rng, spec = driver.rng, driver.spec
    plan = []
    pending = len(driver._pending_rows)
    target = driver._batch_target
    for _ in range(count):
        op = mix.choose(rng)
        result.ops += 1
        if op == "insert":
            plan.append(("buffer", driver._row(driver.next_key)))
            driver.next_key += 1
            pending += 1
            result.inserts += 1
            if flush and pending >= target:
                scale = 1.0 + spec.batch_jitter * (2.0 * rng.random() - 1.0)
                target = max(1, round(spec.batch_size * scale))
                plan.append(("flush", target))
                pending = 0
            continue
        key = keys.next_index(rng, max(1, driver.next_key - pending))
        counter = VERB_COUNTERS[op]
        setattr(result, counter, getattr(result, counter) + 1)
        plan.append((op, driver._row(key) if op == "update" else key))
    return plan


def draw_state(driver, plan, result):
    counts = [getattr(result, name) for name in PHASE_COUNTS]
    return plan, counts, driver.next_key, driver.rng.getstate()


class TestDrawStream:
    """The chunked draw consumes the RNG exactly as one op at a time does,
    whichever way it draws: as columns (no inserts, one uniform per key) or
    op by op (anything else)."""

    @settings(max_examples=250, deadline=None)
    @given(
        mix=st.sampled_from(DRAW_MIXES),
        make_keys=st.sampled_from(DRAW_GENERATORS),
        limit=st.sampled_from(sorted(LIMITS)),
        pending=st.integers(0, 5),
        count=st.integers(1, 300),
        flush=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_draw_is_the_op_by_op_draw(
        self, mix, make_keys, limit, pending, count, flush, seed
    ):
        db = Database(ClusterConfig(num_nodes=1))
        spec = WorkloadSpec(dataset="t", initial_records=0, batch_size=4)
        drivers = []
        for _ in range(2):
            driver = WorkloadDriver(db, spec, seed=seed)
            keys = make_keys()
            size = getattr(keys, "num_keys", None) or getattr(keys, "window", 300)
            durable = LIMITS[limit](size)
            driver.next_key = durable + pending
            driver._pending_rows = [driver._row(key) for key in range(durable, durable + pending)]
            driver._batch_target = pending + 1 + seed % 4
            drivers.append((driver, keys, PhaseResult(name="probe")))
        (driver, keys, result), (oracle, oracle_keys, expected) = drivers
        # A copy of the mix whose column draw (the ops) is watched.
        watched = dataclasses.replace(mix)
        column_draws = []

        def spy(uniforms, verbs_of=watched.verbs_of):
            column_draws.append(len(uniforms))
            return verbs_of(uniforms)

        object.__setattr__(watched, "verbs_of", spy)
        plan = driver._draw_chunk(count, watched, keys, result, flush=flush)
        reference = draw_op_by_op(oracle, count, mix, oracle_keys, expected, flush)
        assert draw_state(driver, plan, result) == draw_state(oracle, reference, expected)
        columnar = not mix.insert and isinstance(keys, (ZipfianKeys, LatestKeys))
        assert column_draws == ([count] if columnar else [])
        db.close()


def count_op_events(db):
    seen = Counter()
    db.events.on("op.*", lambda event: seen.update([event.name]))
    return seen


class TestChunkRule:
    """Chunk size 1 is derived, not configured: a ``max_seconds`` phase and an
    autopilot session each see one ``op.batch`` per op."""

    def run_counting(self, db, spec):
        seen = count_op_events(db)
        report = WorkloadDriver(db, spec).run()
        return report, seen

    def test_plain_phase_batches_runs(self):
        db = open_db()
        report, seen = self.run_counting(
            db, WorkloadSpec(dataset="t", initial_records=200, mix="C", default_ops=300)
        )
        assert report.total_ops == 300
        # Read-only traffic: one ``get_many`` run per chunk.
        assert seen["op.batch"] == -(-300 // driver_module.OP_CHUNK) == 2
        db.close()

    def test_max_seconds_phase_emits_one_batch_per_op(self):
        db = open_db()
        spec = WorkloadSpec(
            dataset="t",
            initial_records=200,
            mix="A",
            schedule=Schedule((Phase(name="budget", ops=300, max_seconds=1e6),)),
        )
        report, seen = self.run_counting(db, spec)
        assert report.phase("budget").ops == 300
        assert seen["op.batch"] == 300
        assert seen["op.read"] == seen["op.update"] == 0
        db.close()

    def test_autopilot_session_emits_one_batch_per_op(self):
        db = open_db()
        db.create_dataset("t", primary_key="k")
        db.autopilot(check_every_ops=50)
        report, seen = self.run_counting(
            db, WorkloadSpec(dataset="t", initial_records=200, mix="A", default_ops=300)
        )
        assert report.total_ops == 300
        assert seen["op.batch"] == 300
        db.close()

    def test_autopilot_session_matches_per_op_oracle(self):
        snapshots = []
        for driver_cls in (WorkloadDriver, PerOpDriver):
            db = open_db()
            db.create_dataset("t", primary_key="k")
            pilot = db.autopilot(check_every_ops=7)
            spec = WorkloadSpec(dataset="t", initial_records=200, mix="A", default_ops=300)
            snapshots.append((driver_cls(db, spec).run().snapshot, pilot.decision_trace()))
            db.close()
        assert snapshots[0] == snapshots[1]

    def test_autopilot_cadence_through_a_rebalance_phase_matches_per_op_oracle(self):
        # Mid-rebalance reads also run one op per chunk while an autopilot is
        # attached: its evaluation points stay where the per-op stream put them.
        observed = []
        for driver_cls in (WorkloadDriver, PerOpDriver):
            db = open_db()
            db.create_dataset("t", primary_key="k")
            pilot = db.autopilot(check_every_ops=7)
            spec = WorkloadSpec(
                dataset="t", initial_records=400, mix="A", schedule=RESIZE_SCHEDULE
            )
            snapshot = driver_cls(db, spec).run().snapshot
            observed.append((snapshot, pilot._ops_seen, pilot._last_check_at))
            db.close()
        assert observed[0] == observed[1]

    def test_max_seconds_cutoff_respected(self):
        db = open_db()
        spec = WorkloadSpec(
            dataset="t",
            initial_records=200,
            mix="C",
            schedule=Schedule((Phase(name="budget", ops=100_000, max_seconds=1e-4),)),
        )
        report = WorkloadDriver(db, spec).run()
        assert 0 < report.phase("budget").ops < 100_000
        db.close()

    def test_max_seconds_cutoff_matches_per_op_oracle(self):
        schedule = Schedule((Phase(name="budget", ops=5_000, max_seconds=0.05),))
        report, snapshot = run_spec(mix="A", schedule=schedule)
        reference_report, reference = run_spec(PerOpDriver, mix="A", schedule=schedule)
        assert snapshot == reference
        assert_same_phases(report, reference_report)
        assert report.phase("budget").ops < 5_000


class TestMidRebalanceReadContract:
    """Reads drawn for a rebalance phase travel as ``op.batch`` runs: none as
    single ``op.read`` events, at most one batch per foreground window."""

    def run_resize(self, strategy, scheduler=False):
        db = open_db(strategy)
        seen = count_op_events(db)
        reads = Counter()
        db.events.on("op.batch", lambda event: reads.update([event["op"]]))
        spec = WorkloadSpec(
            dataset="t",
            initial_records=400,
            mix="A",  # reads + updates: every window's slice is one read run
            schedule=Schedule((Phase(name="resize", ops=200, rebalance={"add": 1}),)),
        )
        # ``scheduler=True`` hands the driver a scheduler on the metrics
        # clock, as the e2e harness does; otherwise the driver builds one.
        given = EventScheduler(db.metrics.clock) if scheduler else None
        driver = WorkloadDriver(db, spec, scheduler=given)
        segments, chunks = [], []
        foreground_quota, execute_chunk = driver._foreground_quota, driver._execute_chunk

        def quota_spy(segment, pending):
            segments.append(segment)
            return foreground_quota(segment, pending)

        def chunk_spy(plan, result):
            chunks.append(len(plan))
            execute_chunk(plan, result)

        driver._foreground_quota, driver._execute_chunk = quota_spy, chunk_spy
        report = driver.run()
        db.close()
        return report, seen, reads["read"], segments, chunks

    @pytest.mark.parametrize("strategy", ["dynahash", "hashing"])
    def test_reads_travel_as_one_batch_per_window(self, strategy):
        report, seen, read_batches, segments, chunks = self.run_resize(strategy)
        phase = report.phase("resize")
        drawn = phase.ops - phase.inserts - phase.updates
        assert phase.reads == drawn > 0
        assert phase.scans == 0
        assert seen["op.read"] == 0
        # One chunk per window granted a share of the plan, plus the
        # post-protocol drain when anything is left; every chunk is one read
        # run, so one ``op.batch``.
        assert sum(chunks) == drawn and all(chunks)
        assert read_batches == len(chunks) <= len(segments) + 1
        if strategy == "hashing":  # offline rebuild: no window, one drain
            assert read_batches == 1
        else:  # the reads are spread over the bucket moves
            assert {segment.kind for segment in segments} >= {"move", "concurrent_writes"}
            assert read_batches > 1

    @pytest.mark.parametrize("strategy", ["dynahash", "hashing"])
    def test_given_scheduler_runs_like_the_default_one(self, strategy):
        built, *_ = self.run_resize(strategy)
        given, *_ = self.run_resize(strategy, scheduler=True)
        assert built.snapshot == given.snapshot
        assert_same_phases(built, given)

    def test_scans_counted_where_drawn(self):
        db = open_db()
        spec = WorkloadSpec(
            dataset="t",
            initial_records=400,
            mix="E",
            schedule=Schedule((Phase(name="resize", ops=120, rebalance={"add": 1}),)),
        )
        seen = count_op_events(db)
        phase = WorkloadDriver(db, spec).run().phase("resize")
        db.close()
        assert phase.scans == seen["op.scan"] > 0
        assert phase.reads + phase.scans == phase.ops - phase.inserts - phase.updates


class TestZetaCache:
    def test_zeta_constants_cached_per_num_keys_and_theta(self):
        from repro.workload.keygen import _ZETA_CACHE

        ZipfianKeys(num_keys=4321, theta=0.93)
        assert (4321, 0.93) in _ZETA_CACHE
        first = _ZETA_CACHE[(4321, 0.93)]
        ZipfianKeys(num_keys=4321, theta=0.93)
        assert _ZETA_CACHE[(4321, 0.93)] is first

    def test_cached_generator_draws_identically(self):
        a = ZipfianKeys(num_keys=2000)
        b = ZipfianKeys(num_keys=2000)  # zeta served from the cache
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(500):
            assert a.next_index(rng_a, 2000) == b.next_index(rng_b, 2000)
