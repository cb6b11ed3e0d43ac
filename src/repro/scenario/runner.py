"""Executing a :class:`~repro.scenario.spec.ScenarioSpec` against the client API.

:func:`run_scenario` is the one compile step between the declarative world
and the session APIs: it opens a :class:`~repro.api.Database` from the spec's
cluster section, attaches the autopilot (if declared), creates datasets /
loads TPC-H, drives the phased workload through a
:class:`~repro.api.WorkloadDriver`, executes the explicit steps (rebalances —
possibly fault-injected or under concurrent LineItem writes — recovery, TPC-H
query plans and query specs), evaluates the spec's checks, and returns a
:class:`ScenarioResult` carrying the frozen :class:`~repro.api.MetricsSnapshot`
the determinism contract is stated over, plus the load, rebalance and query
reports the paper's figure specs read.

Determinism: everything stochastic is seeded from ``ClusterConfig.seed``
(the workload driver, the TPC-H generator, the autopilot's evaluation points)
— running the same spec with the same seed twice yields *equal* snapshots,
which is what ``python -m repro replay`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..common.errors import ConfigError, UnknownDatasetError
from .spec import QueryStep, RebalanceStep, RecoverStep, ScenarioSpec, ScenarioSpecError

__all__ = ["CheckResult", "ScenarioResult", "StepOutcome", "run_scenario"]


@dataclass(frozen=True)
class StepOutcome:
    """What one ``[[steps]]`` entry did: a printable line and its reports.

    The reports are what the paper's figures read; they stay in memory and
    are never recorded.
    """

    kind: str
    detail: str
    #: A completed rebalance step's ``ClusterRebalanceReport``.
    rebalance: Any = None
    #: A query step's ``QueryReport`` per query name, in execution order.
    queries: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    """One ``[checks]`` assertion, evaluated."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {self.name}: {status} ({self.detail})"


@dataclass
class ScenarioResult:
    """Everything one scenario run produced (see :meth:`render`)."""

    spec: ScenarioSpec
    seed: int
    nodes_before: int = 0
    nodes_after: int = 0
    total_ops: int = 0
    simulated_seconds: float = 0.0
    workload_summary: str = ""
    write_p99_seconds: Dict[str, float] = field(default_factory=dict)
    read_p99_seconds: Dict[str, float] = field(default_factory=dict)
    autopilot_summary: str = ""
    autopilot_rebalances: int = 0
    step_outcomes: List[StepOutcome] = field(default_factory=list)
    checks: List[CheckResult] = field(default_factory=list)
    metrics_report: str = ""
    snapshot: Any = None  # MetricsSnapshot
    describe: Dict[str, Any] = field(default_factory=dict)
    #: Totals accumulated from every ``rebalance.complete`` event of the run
    #: (autopilot-triggered and explicit steps alike): ``count``,
    #: ``simulated_seconds``, ``records_moved``, ``bytes_shipped``,
    #: ``buckets_moved``.  Empty when the run never rebalanced.
    rebalances: Dict[str, float] = field(default_factory=dict)
    #: Trace payload (spans + timeline series) when the spec enabled a
    #: ``[trace]`` section; ``None`` for untraced runs.
    trace: Optional[Dict[str, Any]] = None
    #: Every ``chaos.*`` event the run's chaos engine emitted, in emission
    #: order: ``{"event", "at", **payload}`` dicts.  Empty without a
    #: ``[chaos]`` section; embedded in recordings and diffed by ``replay``.
    chaos_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Protocol site of the last chaos-injected crash that interrupted a
    #: step rebalance (``None`` when no crash fired).
    faulted_site: Optional[str] = None
    #: Simulated seconds from the last chaos crash to the recovery pass that
    #: repaired it (``None`` when nothing crashed or nothing recovered).
    recovery_seconds: Optional[float] = None
    #: sha256 fingerprint of every dataset's final contents (rows sorted by
    #: key, read through the raw partition scan so no metric events fire).
    dataset_fingerprints: Dict[str, str] = field(default_factory=dict)
    #: The ``[tpch]`` load's ``TPCHLoadResult`` (``None`` without the section).
    tpch_load: Any = None

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        """The CLI's human-readable run report."""
        from ..common.reporting import format_table
        from ..metrics import PHASE_REBALANCE, PHASE_STEADY

        lines = [
            f"scenario {self.spec.name!r}: {self.spec.cluster.strategy} strategy, "
            f"seed={self.seed}, nodes {self.nodes_before} -> {self.nodes_after}"
        ]
        if self.spec.description:
            lines.append(f"  {self.spec.description}")
        if self.workload_summary:
            lines.append("")
            lines.append(self.workload_summary)
        if self.autopilot_summary:
            lines.append("")
            lines.append("autopilot decision log:")
            lines.append(self.autopilot_summary)
            autopilot_counters = [
                [name, int(value)]
                for name, value in (self.snapshot.counters if self.snapshot else {}).items()
                if name.startswith("autopilot.")
            ]
            if autopilot_counters:
                lines.append("")
                lines.append("autopilot.* events as seen by the metrics registry:")
                lines.append(format_table(["event", "count"], autopilot_counters))
        if self.step_outcomes:
            lines.append("")
            lines.append("steps:")
            for outcome in self.step_outcomes:
                lines.append(f"  [{outcome.kind}] {outcome.detail}")
        if self.chaos_events:
            lines.append("")
            lines.append("chaos events (simulated clock):")
            chaos_rows = [
                [
                    f"{event.get('at', 0.0):.3f}s",
                    event.get("event", "?"),
                    ", ".join(
                        f"{key}={value}"
                        for key, value in sorted(event.items())
                        if key not in ("event", "at")
                    ),
                ]
                for event in self.chaos_events
            ]
            lines.append(format_table(["at", "event", "details"], chaos_rows))
            if self.faulted_site is not None:
                line = f"chaos crash interrupted a rebalance at site {self.faulted_site!r}"
                if self.recovery_seconds is not None:
                    line += f"; recovered in {self.recovery_seconds:.3f} simulated seconds"
                lines.append(line)
        if self.metrics_report:
            lines.append("")
            lines.append("per-op latency by cluster phase (simulated ms):")
            lines.append(self.metrics_report)
        phase_rows = []
        for phase in (PHASE_STEADY, PHASE_REBALANCE):
            write_p99 = self.write_p99_seconds.get(phase)
            read_p99 = self.read_p99_seconds.get(phase)
            if write_p99 is None and read_p99 is None:
                continue
            phase_rows.append(
                [
                    phase,
                    round(write_p99 * 1e3, 3) if write_p99 is not None else "-",
                    round(read_p99 * 1e3, 3) if read_p99 is not None else "-",
                ]
            )
        if phase_rows:
            lines.append("")
            lines.append("tail latency by cluster phase:")
            lines.append(
                format_table(["phase", "write p99 (ms)", "read p99 (ms)"], phase_rows)
            )
        if self.rebalances:
            from ..common.units import fmt_bytes, fmt_duration

            lines.append("")
            lines.append(
                f"rebalance totals: {int(self.rebalances.get('count', 0))} completed, "
                f"{int(self.rebalances.get('records_moved', 0))} records / "
                f"{fmt_bytes(self.rebalances.get('bytes_shipped', 0))} shipped in "
                f"{fmt_duration(self.rebalances.get('simulated_seconds', 0.0))}"
            )
        if self.checks:
            lines.append("")
            for check in self.checks:
                lines.append(check.line())
        lines.append("")
        verdict = "OK" if self.passed else "FAILED"
        lines.append(
            f"scenario {self.spec.name!r} {verdict}: {self.total_ops} ops, "
            f"{self.simulated_seconds:.3f} simulated seconds, "
            f"{sum(1 for c in self.checks if c.passed)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    strategy: Optional[str] = None,
) -> ScenarioResult:
    """Execute ``spec`` and return its :class:`ScenarioResult`.

    ``seed`` / ``strategy`` override the spec (the CLI's ``--seed`` /
    ``--strategy``).  Checks are *evaluated*, not raised — the caller decides
    what a failing check means (the CLI exits non-zero).

    Phase-scheduled rebalances run on the workload driver's event scheduler,
    migrating bucket by bucket with foreground traffic paced inside the
    movement windows.
    """
    from ..api import Database, FaultInjected, WorkloadDriver, load_tpch
    from ..api import SecondaryIndexSpec as APISecondaryIndexSpec
    from ..tpch import REAL_PLANS, TPCHWorkload, query_spec

    overrides = [
        (axis, value) for axis, value in (("seed", seed), ("strategy", strategy)) if value is not None
    ]
    if overrides:
        spec = spec.with_overrides(overrides)
    config = spec.cluster.build_config()
    result = ScenarioResult(spec=spec, seed=config.seed)

    db = Database(
        config,
        workload_scale=spec.cluster.workload_scale,
        strategy_options=dict(spec.cluster.strategy_options) or None,
    )
    try:
        result.nodes_before = db.num_nodes

        def _on_rebalance_complete(event: Any) -> None:
            report = event["report"]
            totals = result.rebalances
            totals["count"] = totals.get("count", 0) + 1
            totals["simulated_seconds"] = (
                totals.get("simulated_seconds", 0.0) + report.simulated_seconds
            )
            totals["records_moved"] = totals.get("records_moved", 0) + report.total_records_moved
            totals["bytes_shipped"] = totals.get("bytes_shipped", 0) + report.total_bytes_shipped
            totals["buckets_moved"] = totals.get("buckets_moved", 0) + sum(
                dataset.buckets_moved for dataset in report.dataset_reports
            )

        db.on("rebalance.complete", _on_rebalance_complete)

        chaos_engine = None
        if spec.chaos is not None and spec.chaos.enabled:
            # Armed before the trace session starts so the tracer's standing
            # chaos.* subscription sees every announcement.
            chaos_engine = db.enable_chaos(**spec.chaos.engine_kwargs())

            def _on_chaos_event(event: Any) -> None:
                entry: Dict[str, Any] = {
                    "event": event.name,
                    "at": db.metrics.clock.now,
                }
                entry.update(event.payload)
                result.chaos_events.append(entry)

            db.on("chaos.*", _on_chaos_event)

        trace_session = None
        if spec.trace is not None and spec.trace.enabled:
            trace_session = db.start_trace(
                sample_interval_seconds=spec.trace.sample_interval_seconds
            )

        pilot = None
        if spec.autopilot is not None:
            section = spec.autopilot
            pilot = db.autopilot(
                policy=section.policy,
                policy_options=dict(section.options) or None,
                check_every_ops=section.check_every_ops,
                cooldown_seconds=section.cooldown_seconds,
                hysteresis=section.hysteresis,
                dry_run=section.dry_run,
                max_rebalances=section.max_rebalances,
            )

        for dataset in spec.datasets:
            primary_key: "str | Tuple[str, ...]" = (
                dataset.primary_key if len(dataset.primary_key) > 1 else dataset.primary_key[0]
            )
            db.create_dataset(
                dataset.name,
                primary_key=primary_key,
                secondary_indexes=[
                    APISecondaryIndexSpec(
                        index.name, tuple(index.fields), tuple(index.included_fields)
                    )
                    for index in dataset.secondary_indexes
                ],
            )

        if spec.tpch is not None:
            result.tpch_load = load_tpch(
                db,
                scale_factor=spec.tpch.total_scale_factor(db.num_nodes),
                tables=spec.tpch.loaded_tables,
                batch_size=spec.tpch.batch_size,
            )

        if spec.workload is not None:
            driver = WorkloadDriver(db, spec.workload.build_spec())
            try:
                report = driver.run()
            except ConfigError as exc:
                # What a validated workload can still get wrong depends on the
                # live cluster: the phase-scheduled resize (at most one).
                resizing = [i for i, p in enumerate(spec.workload.phases) if p.rebalance]
                where = f"workload.phases[{resizing[0]}]" if resizing else "workload"
                raise ScenarioSpecError(f"{where}: {exc}") from exc
            result.workload_summary = report.summary()
            result.total_ops = report.total_ops
            result.simulated_seconds = report.simulated_seconds
            result.write_p99_seconds = dict(report.write_p99_seconds)
            result.read_p99_seconds = dict(report.read_p99_seconds)
            result.autopilot_rebalances = report.autopilot_rebalances

        counts_before_steps = {name: db[name].count() for name in db.dataset_names()}

        rebalance_seen = False
        queries_before_rebalance: Dict[str, Any] = {}
        queries_after_rebalance: Dict[str, Any] = {}
        for position, step in enumerate(spec.steps):
            if isinstance(step, RebalanceStep):
                kwargs: Dict[str, Any] = step.resize_kwargs()
                if step.fault_sites:
                    kwargs["fault_sites"] = list(step.fault_sites)
                if step.concurrent_lineitem_rows:
                    # Fresh rows from the loaded scale and seed (validation
                    # guarantees a [tpch] section that loads lineitem).
                    workload = TPCHWorkload(result.tpch_load.scale_factor, seed=config.seed)
                    kwargs["concurrent_rows"] = {
                        "lineitem": workload.concurrent_lineitem_rows(
                            step.concurrent_lineitem_rows
                        )
                    }
                try:
                    report = db.rebalance(**kwargs)
                except ConfigError as exc:
                    # Whether a resize fits depends on the live cluster size
                    # (``remove = 10`` on 4 nodes): a spec error, located.
                    raise ScenarioSpecError(f"steps[{position}]: {exc}") from exc
                except FaultInjected as fault:
                    if step.expect_fault:
                        result.step_outcomes.append(
                            StepOutcome(
                                "rebalance",
                                f"interrupted by injected fault at {fault.site!r} (as expected)",
                            )
                        )
                        continue
                    if chaos_engine is None:
                        raise
                    # Spec validation guarantees an un-expect_fault step only
                    # sees FaultInjected when a chaos crash plan armed it.
                    result.faulted_site = fault.site
                    result.step_outcomes.append(
                        StepOutcome(
                            "rebalance",
                            f"interrupted by chaos-injected crash at {fault.site!r}",
                        )
                    )
                else:
                    if step.expect_fault:
                        result.step_outcomes.append(
                            StepOutcome(
                                "rebalance",
                                "expected an injected fault but the rebalance completed",
                            )
                        )
                        result.checks.append(
                            CheckResult(
                                "expect_fault",
                                False,
                                f"fault_sites {list(step.fault_sites)} never fired",
                            )
                        )
                    else:
                        rebalance_seen = True
                        result.step_outcomes.append(
                            StepOutcome(
                                "rebalance",
                                f"{report.old_nodes} -> {report.new_nodes} nodes, "
                                f"{report.total_records_moved} records moved in "
                                f"{report.simulated_seconds:.3f} simulated seconds",
                                rebalance=report,
                            )
                        )
            elif isinstance(step, RecoverStep):
                outcomes = db.recover()
                detail = (
                    "; ".join(
                        f"rebalance #{o.rebalance_id} on {o.dataset!r} -> {o.action}"
                        for o in outcomes
                    )
                    or "nothing to recover"
                )
                result.step_outcomes.append(StepOutcome("recover", detail))
                if chaos_engine is not None:
                    recovered = chaos_engine.recovery_seconds()
                    if recovered is not None:
                        result.recovery_seconds = recovered
            elif isinstance(step, QueryStep):
                reports: Dict[str, Any] = {}
                try:
                    if step.plan is not None:
                        answer, reports[step.plan] = db.execute(step.plan, REAL_PLANS[step.plan]())
                        target = queries_after_rebalance if rebalance_seen else queries_before_rebalance
                        target.setdefault(step.plan, answer)
                    for name in step.specs:
                        reports[name] = db.execute_spec(query_spec(name))
                except UnknownDatasetError as exc:
                    # The query reads a table ``tpch.tables`` left out.
                    raise ScenarioSpecError(f"steps[{position}]: {exc}") from exc
                if step.plan is not None:
                    detail = reports[step.plan].summary()
                else:
                    seconds = sum(report.simulated_seconds for report in reports.values())
                    detail = f"{len(reports)} query spec(s) in {seconds:.3f} simulated seconds"
                result.step_outcomes.append(StepOutcome("query", detail, queries=reports))

        result.nodes_after = db.num_nodes
        result.autopilot_summary = pilot.summary() if pilot is not None else ""
        result.metrics_report = db.metrics.report()
        if not result.write_p99_seconds:
            from ..metrics import PHASE_REBALANCE, PHASE_STEADY

            for phase in (PHASE_STEADY, PHASE_REBALANCE):
                writes = db.metrics.write_latency(phase)
                if writes.count:
                    result.write_p99_seconds[phase] = writes.percentile(0.99)
                reads = db.metrics.latency("read", phase)
                if reads.count:
                    result.read_p99_seconds[phase] = reads.percentile(0.99)
        result.describe = db.describe()
        result.dataset_fingerprints = _dataset_fingerprints(db)
        result.snapshot = db.metrics.snapshot()
        if trace_session is not None:
            # Close the trace *after* the snapshot so the session span's end
            # matches the recorded simulated_seconds, then serialise it.
            trace_session.finish()
            result.trace = trace_session.to_payload(scenario=spec.name, seed=config.seed)

        _evaluate_checks(
            result,
            counts_before_steps={name: counts_before_steps.get(name) for name in db.dataset_names()},
            counts_after_steps={name: db[name].count() for name in db.dataset_names()},
            queries_before=queries_before_rebalance,
            queries_after=queries_after_rebalance,
        )
    finally:
        db.close()
    return result


def _dataset_fingerprints(db: Any) -> Dict[str, str]:
    """sha256 of each dataset's full contents, sorted by primary key.

    Reads go through the raw partition scan (``scan_primary``), not the
    instrumented :meth:`Dataset.scan` verb — fingerprinting must not emit
    ``op.scan`` samples or it would perturb the very snapshots the
    determinism contract compares.
    """
    import hashlib
    import json

    fingerprints: Dict[str, str] = {}
    for name in sorted(db.dataset_names()):
        runtime = db.cluster.dataset(name)
        rows = []
        for pid in sorted(runtime.partitions):
            for entry in runtime.partitions[pid].scan_primary():
                rows.append((entry.key, entry.value))
        rows.sort(key=lambda pair: pair[0])
        digest = hashlib.sha256()
        for key, value in rows:
            digest.update(
                json.dumps([key, value], sort_keys=True, default=str).encode("utf-8")
            )
            digest.update(b"\n")
        fingerprints[name] = digest.hexdigest()
    return fingerprints


def _answers_equal(left: Any, right: Any) -> bool:
    """Structural equality with float tolerance.

    Aggregates computed before and after a rebalance sum the same records in
    a different partition order, so float totals can differ in the last few
    bits; anything beyond summation round-off is a real divergence.
    """
    from math import isclose

    if isinstance(left, float) or isinstance(right, float):
        return (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and isclose(left, right, rel_tol=1e-9, abs_tol=1e-6)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _answers_equal(value, right[key]) for key, value in left.items()
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _answers_equal(a, b) for a, b in zip(left, right, strict=True)
        )
    return left == right


def _evaluate_checks(
    result: ScenarioResult,
    counts_before_steps: Dict[str, Optional[int]],
    counts_after_steps: Dict[str, int],
    queries_before: Dict[str, Any],
    queries_after: Dict[str, Any],
) -> None:
    from ..metrics import PHASE_REBALANCE, PHASE_STEADY

    checks = result.spec.checks
    if checks.min_autopilot_rebalances is not None:
        result.checks.append(
            CheckResult(
                "min_autopilot_rebalances",
                result.autopilot_rebalances >= checks.min_autopilot_rebalances,
                f"{result.autopilot_rebalances} autopilot rebalance(s), "
                f"need >= {checks.min_autopilot_rebalances}",
            )
        )
    if checks.expect_nodes is not None:
        result.checks.append(
            CheckResult(
                "expect_nodes",
                result.nodes_after == checks.expect_nodes,
                f"final cluster has {result.nodes_after} node(s), expected {checks.expect_nodes}",
            )
        )
    if checks.min_total_ops is not None:
        result.checks.append(
            CheckResult(
                "min_total_ops",
                result.total_ops >= checks.min_total_ops,
                f"{result.total_ops} op(s), need >= {checks.min_total_ops}",
            )
        )
    if checks.rebalance_write_p99_gte_steady:
        steady = result.write_p99_seconds.get(PHASE_STEADY)
        rebalance = result.write_p99_seconds.get(PHASE_REBALANCE)
        if steady is None or rebalance is None:
            result.checks.append(
                CheckResult(
                    "rebalance_write_p99_gte_steady",
                    False,
                    "missing a write-latency population for "
                    f"{'steady' if steady is None else 'rebalance'} phase",
                )
            )
        else:
            result.checks.append(
                CheckResult(
                    "rebalance_write_p99_gte_steady",
                    rebalance >= steady,
                    f"write p99 {rebalance * 1e3:.3f} ms mid-rebalance vs "
                    f"{steady * 1e3:.3f} ms steady",
                )
            )
    for phase in (PHASE_STEADY, PHASE_REBALANCE):
        budget_ms = checks.write_p99_budget_ms.get(phase)
        if budget_ms is None:
            continue
        observed = result.write_p99_seconds.get(phase)
        if observed is None:
            # A budget over a phase that recorded no writes fails loudly: a
            # silent workload is not evidence the SLO held.
            result.checks.append(
                CheckResult(
                    f"write_p99_budget_ms.{phase}",
                    False,
                    f"no write-latency population for the {phase} phase",
                )
            )
            continue
        result.checks.append(
            CheckResult(
                f"write_p99_budget_ms.{phase}",
                observed * 1e3 <= budget_ms,
                f"write p99 {observed * 1e3:.3f} ms vs budget {budget_ms:.3f} ms",
            )
        )
    if checks.datasets_unchanged_after_steps:
        changed = {
            name: (before, counts_after_steps.get(name))
            for name, before in counts_before_steps.items()
            if before is not None and before != counts_after_steps.get(name)
        }
        result.checks.append(
            CheckResult(
                "datasets_unchanged_after_steps",
                not changed,
                "record counts intact across the steps"
                if not changed
                else "changed: "
                + ", ".join(f"{name} {a} -> {b}" for name, (a, b) in sorted(changed.items())),
            )
        )
    if checks.recovered_within_seconds is not None:
        if result.faulted_site is None:
            result.checks.append(
                CheckResult(
                    "recovered_within_seconds",
                    True,
                    "no chaos crash fired, nothing to recover from",
                )
            )
        elif result.recovery_seconds is None:
            result.checks.append(
                CheckResult(
                    "recovered_within_seconds",
                    False,
                    f"chaos crash at {result.faulted_site!r} was never recovered "
                    "(is there a recover step after the rebalance?)",
                )
            )
        else:
            result.checks.append(
                CheckResult(
                    "recovered_within_seconds",
                    result.recovery_seconds <= checks.recovered_within_seconds,
                    f"recovered {result.recovery_seconds:.3f}s after the crash at "
                    f"{result.faulted_site!r}, budget "
                    f"{checks.recovered_within_seconds:.3f}s",
                )
            )
    if checks.max_routing_miss_rate is not None:
        counters = dict(result.snapshot.counters) if result.snapshot is not None else {}
        misses = int(counters.get("retry.routing_miss", 0))
        total = int(counters.get("ops.total", 0))
        rate = misses / total if total else 0.0
        result.checks.append(
            CheckResult(
                "max_routing_miss_rate",
                rate <= checks.max_routing_miss_rate,
                f"{misses} routing miss(es) over {total} op(s) = {rate:.4f}, "
                f"cap {checks.max_routing_miss_rate:.4f}",
            )
        )
    if checks.queries_identical_across_rebalance:
        compared = sorted(set(queries_before) & set(queries_after))
        mismatched = [
            plan
            for plan in compared
            if not _answers_equal(queries_before[plan], queries_after[plan])
        ]
        result.checks.append(
            CheckResult(
                "queries_identical_across_rebalance",
                bool(compared) and not mismatched,
                f"plans {compared} answered identically before and after the rebalance"
                if compared and not mismatched
                else (
                    f"answers differ for {mismatched}"
                    if mismatched
                    else "no query plan ran on both sides of a rebalance"
                ),
            )
        )
