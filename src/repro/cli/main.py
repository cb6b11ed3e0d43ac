"""The ``python -m repro`` command line: scenarios in, reports out.

The subcommands cover the operate-it-like-a-database loop the docs teach
(declare a cluster + workload + policy, run it, read the report):

``run SPEC``
    Execute a declarative scenario spec (TOML or JSON — see
    :mod:`repro.scenario`), print the run report, and exit non-zero if any
    ``[checks]`` assertion failed.  ``--record`` writes a recording for
    ``replay``/``inspect``; ``--seed``/``--strategy`` override the spec.

``bench``
    The hot-path microbenchmarks and the CI perf gate: every argument is
    forwarded unchanged to ``python -m repro.bench.micro`` (``--dry-run``,
    ``--repeats``, ``--check``, ``--tolerance``, ``--write-baseline``).

``inspect RECORDING``
    Print a recorded run's cluster directory/partition state, check
    outcomes, counters, and latency percentiles — offline, from the JSON.
    ``--format json`` emits the same summary as a machine-readable document.

``replay RECORDING``
    Re-run the recorded scenario from its embedded spec + seed and diff the
    resulting :class:`~repro.api.MetricsSnapshot` — and, for traced runs,
    the embedded trace payload — against the recorded ones.  Zero
    differences is the determinism contract; any difference lists line by
    line and exits 1.

``trace RECORDING|SPEC``
    Render a traced run: the span tree and a phase Gantt in the terminal,
    plus a Chrome trace-event JSON file Perfetto (https://ui.perfetto.dev)
    loads directly.  Given a recording, reads the embedded trace; given a
    spec, runs it with tracing force-enabled first.  ``--timeline-csv``
    additionally exports the timeline series as byte-stable CSV.

``sweep SPEC``
    Expand a base spec over a parameter grid (the spec's ``[sweep]`` section
    and/or ``--axis strategy=a,b`` arguments), run one deterministic
    recording per cell — ``--jobs N`` fans cells out across processes with
    byte-identical results — and write a byte-stable sweep manifest.  See
    :mod:`repro.report`.

``compare RECORDING... | MANIFEST``
    The comparison engine: load N recordings (or a sweep manifest), align
    them on the shared simulated-time grid, print head-to-head tables and
    per-pair deltas, optionally enforce ``--gate`` regression thresholds
    (exit 1 on breach) and write a self-contained HTML dashboard.

``lint [PATHS...]``
    Run **reprolint** (:mod:`repro.analysis`), the invariant-enforcing
    static-analysis suite: determinism rules, event-contract rules, and
    registry-key rules over the default roots (``src``, ``tests``,
    ``examples``, ``benchmarks``) or the given paths.  ``--format github``
    emits workflow-command annotations for CI; exits 1 on violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..scenario import (
    ScenarioSpecError,
    diff_chaos,
    diff_snapshots,
    diff_traces,
    load_recording,
    load_scenario,
    run_scenario,
    snapshot_from_recording,
    spec_from_recording,
    write_recording,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scenario runner for the DynaHash reproduction: execute "
        "declarative experiment specs, benchmark the hot paths, and check "
        "determinism via recorded snapshots.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    run = subparsers.add_parser(
        "run",
        help="execute a scenario spec and print the run report",
        description="Execute a declarative scenario spec (TOML or JSON). "
        "Exits 1 if any [checks] assertion fails.",
    )
    run.add_argument("spec", help="path to the scenario spec (.toml or .json)")
    run.add_argument("--seed", type=int, help="override the spec's cluster seed")
    run.add_argument(
        "--strategy",
        help="override the spec's rebalancing strategy (drops the spec's "
        "strategy_options — they are strategy-specific)",
    )
    run.add_argument(
        "--record",
        metavar="PATH",
        help="write a recording (spec + seed + metrics snapshot) for replay/inspect",
    )
    run.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="print only the final verdict line and check failures",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the hot-path microbenchmarks (python -m repro.bench.micro)",
        description="Forward every argument to python -m repro.bench.micro.",
        add_help=False,
        # No "-" prefix, so micro's flags (and -h) land in argv verbatim.
        prefix_chars="+",
    )
    bench.add_argument("argv", nargs=argparse.REMAINDER)

    inspect = subparsers.add_parser(
        "inspect",
        help="print cluster/metrics state from a recorded run",
        description="Summarise a recording written by `run --record`: cluster "
        "layout, datasets, check outcomes, counters, latency percentiles.",
    )
    inspect.add_argument("recording", help="path to a recording JSON")
    inspect.add_argument(
        "--counters",
        action="store_true",
        help="also print every counter (not just the headline ones)",
    )
    inspect.add_argument(
        "--format",
        default="plain",
        choices=("plain", "json"),
        help="output format: human-readable tables or a JSON summary document",
    )

    replay = subparsers.add_parser(
        "replay",
        help="re-run a recorded scenario and diff the metrics snapshots",
        description="Re-run the scenario embedded in a recording (same spec, "
        "same seed) and report any snapshot difference. Zero diff = the "
        "determinism contract holds; differences exit 1.",
    )
    replay.add_argument("recording", help="path to a recording JSON")

    trace = subparsers.add_parser(
        "trace",
        help="render a traced run and write Perfetto-loadable trace JSON",
        description="Render a run's trace: span tree + Gantt in the "
        "terminal, Chrome trace-event JSON on disk (load it at "
        "https://ui.perfetto.dev). Accepts a recording with an embedded "
        "trace, or a scenario spec to run with tracing force-enabled.",
    )
    trace.add_argument(
        "source",
        help="a recording written by `run --record` (with a [trace] section) "
        "or a scenario spec (.toml or .json)",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        help="where to write the Chrome trace JSON "
        "(default: ./<source stem>.trace.json)",
    )
    trace.add_argument(
        "--seed",
        type=int,
        help="override the spec's cluster seed (spec sources only)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=80,
        help="maximum span-tree lines to print (default: 80)",
    )
    trace.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="skip the terminal renderings; just write the trace file",
    )
    trace.add_argument(
        "--timeline-csv",
        metavar="PATH",
        help="also export the timeline series as CSV (one column per series, "
        "one row per sample instant; byte-stable like the Chrome export)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="run a spec over a parameter grid, one recording per cell",
        description="Expand a base scenario spec over a parameter grid (its "
        "[sweep] section and/or --axis arguments), run every cell "
        "deterministically, and write the recordings plus a byte-stable "
        "manifest for `compare`. Exits 1 if any cell's checks failed.",
    )
    sweep.add_argument("spec", help="path to the base scenario spec (.toml or .json)")
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="add or replace a grid axis (an alias like strategy/seed/nodes/"
        "workload_scale/policy, or a dotted spec path); repeatable",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: the spec's sweep.jobs, else 1); "
        "results are byte-identical at any value",
    )
    sweep.add_argument(
        "--out-dir",
        metavar="DIR",
        help="directory for recordings + manifest (default: sweep_<scenario>)",
    )
    sweep.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="print only the manifest path and failing cells",
    )

    compare = subparsers.add_parser(
        "compare",
        help="diff N recordings (or a sweep manifest) head to head",
        description="Load recordings (or one sweep manifest), align them on "
        "the shared simulated-time grid, and print comparison tables and "
        "per-pair deltas. --gate turns relative-delta thresholds into a CI "
        "regression gate (exit 1 on breach); --html writes a self-contained "
        "dashboard.",
    )
    compare.add_argument(
        "sources",
        nargs="+",
        metavar="RECORDING",
        help="recording files, or a single sweep manifest JSON",
    )
    compare.add_argument(
        "--baseline",
        metavar="CELL",
        help="cell label the deltas and gates compare against (default: first)",
    )
    compare.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="METRIC=DELTA",
        help="fail (exit 1) if a cell's metric moved past the signed relative "
        "delta vs the baseline, e.g. write_p99_ms[rebalance]=0.25 (may not "
        "grow >25%%) or ops_per_sec=-0.10 (may not drop >10%%); repeatable",
    )
    compare.add_argument(
        "--html",
        metavar="PATH",
        help="write the self-contained HTML dashboard here",
    )
    compare.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="print only gate outcomes and the dashboard path",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the invariant-enforcing static-analysis suite",
        description="Statically check determinism invariants, the event-bus "
        "contract, and registry keys (see docs/STATIC_ANALYSIS.md). "
        "Exits 1 if any violation is found.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests examples benchmarks)",
    )
    lint.add_argument(
        "--format",
        default="plain",
        choices=("plain", "github"),
        help="output format: plain path:line:col lines or GitHub annotations",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ScenarioSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_scenario(args.spec)
    result = run_scenario(spec, seed=args.seed, strategy=args.strategy)
    if args.quiet:
        for check in result.checks:
            if not check.passed:
                print(check.line())
        verdict = "OK" if result.passed else "FAILED"
        print(
            f"scenario {result.spec.name!r} {verdict}: {result.total_ops} ops, "
            f"nodes {result.nodes_before} -> {result.nodes_after}"
        )
    else:
        print(result.render())
    if args.record:
        path = write_recording(result, args.record)
        print(f"\nrecording written: {path}")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    from ..bench import micro

    return micro.main(args.argv)


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

#: Headline counters `inspect` always prints when present.
_HEADLINE_COUNTERS = (
    "ops.total",
    "ingest.records",
    "rebalance.started",
    "rebalance.completed",
    "autopilot.decision",
    "autopilot.rebalance.complete",
    "chaos.crash",
    "retry.routing_miss",
    "retry.backoff",
)


def _cmd_inspect(args: argparse.Namespace) -> int:
    from ..common.reporting import format_table
    from ..metrics.histogram import LatencyHistogram

    document = load_recording(args.recording)
    snapshot = snapshot_from_recording(document)
    scenario = document.get("scenario", {}).get("scenario", {})
    nodes = document.get("nodes", {})
    if args.format == "json":
        print(json.dumps(_inspect_summary(args, document, snapshot), indent=2, sort_keys=True))
        return 0
    print(
        f"recording of scenario {scenario.get('name')!r}: seed={document.get('seed')}, "
        f"nodes {nodes.get('before')} -> {nodes.get('after')}, "
        f"{document.get('total_ops')} ops in "
        f"{document.get('simulated_seconds', 0.0):.3f} simulated seconds"
    )

    describe: Dict[str, Any] = document.get("describe", {})
    datasets: Dict[str, Any] = describe.get("datasets", {})
    if datasets:
        print(
            f"\ncluster: {describe.get('nodes')} nodes, "
            f"{describe.get('partitions')} partitions, strategy={describe.get('strategy')}"
        )
        rows = [
            [
                name,
                info.get("records"),
                info.get("buckets"),
                info.get("bytes"),
                info.get("routing"),
            ]
            for name, info in sorted(datasets.items())
        ]
        print(format_table(["dataset", "records", "buckets", "bytes", "routing"], rows))

    checks = document.get("checks", [])
    if checks:
        print("\nchecks:")
        for check in checks:
            status = "PASS" if check.get("passed") else "FAIL"
            print(f"  {check.get('name')}: {status} ({check.get('detail')})")

    trace = document.get("trace")
    if trace is not None:
        print(
            f"\ntrace: {len(trace.get('spans', []))} span(s), "
            f"{len(trace.get('series', []))} series sampled every "
            f"{trace.get('interval_seconds')}s simulated "
            f"(render with `python -m repro trace {args.recording}`)"
        )

    chaos = document.get("chaos")
    if chaos is not None:
        print("\ninjected chaos events (simulated clock):")
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
            for event in chaos.get("events", [])
        ]
        print(format_table(["at", "event", "details"], chaos_rows))
        faulted_site = chaos.get("faulted_site")
        if faulted_site is not None:
            line = f"chaos crash interrupted a rebalance at site {faulted_site!r}"
            recovery = chaos.get("recovery_seconds")
            if recovery is not None:
                line += f"; recovered in {recovery:.3f} simulated seconds"
            print(line)

    counter_rows = [
        [name, int(value)]
        for name, value in snapshot.counters.items()
        if args.counters or name in _HEADLINE_COUNTERS
    ]
    if counter_rows:
        print("\ncounters:" if args.counters else "\nheadline counters:")
        print(format_table(["counter", "value"], counter_rows))

    histogram_rows = []
    for key, snap in sorted(snapshot.histograms.items()):
        histogram = LatencyHistogram.from_snapshot(snap)
        if not histogram.count:
            continue
        summary = histogram.summary()
        histogram_rows.append(
            [
                key,
                int(summary["count"]),
                round(summary["p50"] * 1e3, 3),
                round(summary["p99"] * 1e3, 3),
                round(summary["max"] * 1e3, 3),
            ]
        )
    if histogram_rows:
        print("\nlatency histograms (ms):")
        print(
            format_table(["op[phase]", "count", "p50 (ms)", "p99 (ms)", "max (ms)"], histogram_rows)
        )
    return 0


def _inspect_summary(
    args: argparse.Namespace, document: Dict[str, Any], snapshot: Any
) -> Dict[str, Any]:
    """The ``inspect --format json`` document (stable keys, JSON-safe values)."""
    from ..metrics.histogram import LatencyHistogram

    scenario = document.get("scenario", {}).get("scenario", {})
    histograms: Dict[str, Any] = {}
    for key, snap in sorted(snapshot.histograms.items()):
        histogram = LatencyHistogram.from_snapshot(snap)
        if not histogram.count:
            continue
        summary = histogram.summary()
        histograms[key] = {
            "count": int(summary["count"]),
            "p50_ms": summary["p50"] * 1e3,
            "p99_ms": summary["p99"] * 1e3,
            "max_ms": summary["max"] * 1e3,
        }
    trace = document.get("trace")
    trace_summary = None
    if trace is not None:
        trace_summary = {
            "spans": len(trace.get("spans", [])),
            "series": sorted(series["name"] for series in trace.get("series", [])),
            "interval_seconds": trace.get("interval_seconds"),
        }
    chaos = document.get("chaos")
    chaos_summary = None
    if chaos is not None:
        chaos_summary = {
            "events": chaos.get("events", []),
            "faulted_site": chaos.get("faulted_site"),
            "recovery_seconds": chaos.get("recovery_seconds"),
        }
    return {
        "scenario": scenario.get("name"),
        "seed": document.get("seed"),
        "nodes": document.get("nodes", {}),
        "total_ops": document.get("total_ops"),
        "simulated_seconds": document.get("simulated_seconds"),
        "describe": document.get("describe", {}),
        "checks": document.get("checks", []),
        "counters": {
            name: int(value)
            for name, value in snapshot.counters.items()
            if args.counters or name in _HEADLINE_COUNTERS
        },
        "histograms": histograms,
        "trace": trace_summary,
        "chaos": chaos_summary,
    }


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..trace import chrome_trace_json, render_gantt, render_span_tree

    source = Path(args.source)
    if not source.exists():
        print(f"error: no such file: {source}", file=sys.stderr)
        return 2

    # A recording embeds its trace; anything else is treated as a spec and
    # run with tracing force-enabled (the whole point of asking for a trace).
    document: Optional[Dict[str, Any]] = None
    if source.suffix == ".json":
        try:
            document = load_recording(source)
        except ScenarioSpecError:
            document = None

    if document is not None:
        payload = document.get("trace")
        if payload is None:
            print(
                f"error: {source} has no embedded trace; re-record with a "
                "[trace] section in the spec, or point `trace` at the spec "
                "itself to run it traced",
                file=sys.stderr,
            )
            return 2
        label = payload.get("scenario") or document.get("scenario", {}).get(
            "scenario", {}
        ).get("name")
    else:
        from dataclasses import replace as dc_replace

        from ..scenario import TraceSection

        spec = load_scenario(source)
        if spec.trace is None or not spec.trace.enabled:
            interval = spec.trace.sample_interval_seconds if spec.trace is not None else 0.25
            spec = dc_replace(
                spec, trace=TraceSection(enabled=True, sample_interval_seconds=interval)
            )
        print(f"running scenario {spec.name!r} with tracing enabled ...")
        result = run_scenario(spec, seed=args.seed)
        payload = result.trace
        label = spec.name
        if payload is None:  # pragma: no cover - defensive; trace was forced on
            print("error: the run produced no trace payload", file=sys.stderr)
            return 2

    if not args.quiet:
        print(
            f"trace of scenario {label!r}: {len(payload.get('spans', []))} span(s), "
            f"{len(payload.get('series', []))} series, seed={payload.get('seed')}"
        )
        tree_lines = render_span_tree(payload).splitlines()
        print("\nspan tree:")
        for line in tree_lines[: args.limit]:
            print(f"  {line}")
        if len(tree_lines) > args.limit:
            print(f"  … +{len(tree_lines) - args.limit} more span(s); raise --limit to see them")
        print("\ntimeline:")
        print(render_gantt(payload))
        print()

    out = Path(args.out) if args.out else Path(f"{source.stem}.trace.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(chrome_trace_json(payload))
    print(f"chrome trace written: {out} (load it at https://ui.perfetto.dev)")
    if args.timeline_csv:
        from ..trace import timeline_csv

        csv_path = Path(args.timeline_csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(timeline_csv(payload))
        print(
            f"timeline CSV written: {csv_path} "
            f"({len(payload.get('series', []))} series)"
        )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..report import merge_axes, parse_axis_arg, run_sweep

    spec = load_scenario(args.spec)
    spec_axes = spec.sweep.axes if spec.sweep is not None else ()
    axes = merge_axes(spec_axes, [parse_axis_arg(argument) for argument in args.axis])
    if not axes:
        # Fail before the banner — run_sweep would raise the same complaint,
        # but only after printing a misleading empty-grid header.
        raise ScenarioSpecError(
            "sweep: no axes — declare a [sweep.axes] section in the spec or "
            "pass --axis NAME=VALUE,... on the command line"
        )
    jobs = args.jobs
    if jobs is None:
        jobs = spec.sweep.jobs if spec.sweep is not None else 1
    if jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else Path(f"sweep_{spec.name}")

    grid_size = 1
    for _, values in axes:
        grid_size *= len(values)
    if not args.quiet:
        print(
            f"sweep of scenario {spec.name!r}: "
            + " x ".join(f"{name}[{len(values)}]" for name, values in axes)
            + f" = {grid_size} cell(s), jobs={jobs}"
        )

    def progress(cell: Any, passed: bool) -> None:
        verdict = "OK" if passed else "FAILED"
        if not args.quiet or not passed:
            print(f"  cell {cell.cell_id}: {verdict}")

    manifest = run_sweep(spec, axes, out_dir, jobs=jobs, progress=progress)
    failed = [entry["id"] for entry in manifest["cells"] if not entry["passed"]]
    manifest_path = out_dir / "sweep.manifest.json"
    print(
        f"sweep {'FAILED' if failed else 'OK'}: "
        f"{len(manifest['cells']) - len(failed)}/{len(manifest['cells'])} cell(s) passed; "
        f"manifest written: {manifest_path}"
    )
    print(f"compare with: python -m repro compare {manifest_path}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    from ..report import (
        evaluate_gates,
        load_comparison,
        parse_gate_arg,
        render_comparison,
        render_dashboard,
    )

    # Parse gates before rendering anything: a typo'd --gate should fail
    # fast, not after 30 lines of tables.
    gates = dict(parse_gate_arg(argument) for argument in args.gate or [])
    comparison = load_comparison(args.sources)
    if not args.quiet:
        print(render_comparison(comparison, baseline=args.baseline))
    status = 0
    if gates:
        results = evaluate_gates(comparison, gates, baseline=args.baseline)
        if not args.quiet:
            print()
        for result in results:
            print(result.line())
        breached = sum(1 for result in results if not result.passed)
        print(f"gates: {len(results) - breached}/{len(results)} passed")
        if breached:
            status = 1
    if args.html:
        html_path = Path(args.html)
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(render_dashboard(comparison))
        print(f"dashboard written: {html_path}")
    return status


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..analysis import RULE_CATALOG, render_report
    from ..analysis.engine import DEFAULT_ROOTS, discover, lint_paths

    if args.list_rules:
        width = max(len(rule) for rule in RULE_CATALOG)
        for rule, description in RULE_CATALOG.items():
            print(f"{rule:<{width}}  {description}")
        return 0
    paths = list(args.paths)
    if not paths:
        paths = [root for root in DEFAULT_ROOTS if Path(root).is_dir()]
        if not paths:
            print(
                "error: none of the default roots "
                f"({', '.join(DEFAULT_ROOTS)}) exist here; pass paths to lint",
                file=sys.stderr,
            )
            return 2
    try:
        files = discover(paths)
        violations = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(violations, format=args.format, files_checked=len(files)))
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _cmd_replay(args: argparse.Namespace) -> int:
    document = load_recording(args.recording)
    spec = spec_from_recording(document)
    recorded = snapshot_from_recording(document)
    seed = document.get("seed")
    print(f"replaying scenario {spec.name!r} with seed={seed} ...")
    result = run_scenario(spec, seed=seed)
    differences = diff_snapshots(recorded, result.snapshot)
    differences.extend(diff_traces(document.get("trace"), result.trace))
    replayed_chaos = None
    if result.chaos_events:
        replayed_chaos = {
            "events": [dict(event) for event in result.chaos_events],
            "faulted_site": result.faulted_site,
            "recovery_seconds": result.recovery_seconds,
        }
    differences.extend(diff_chaos(document.get("chaos"), replayed_chaos))
    if differences:
        print(f"replay DIVERGED: {len(differences)} difference(s) vs {args.recording}")
        for line in differences:
            print(f"  {line}")
        return 1
    traced = document.get("trace") is not None
    extras = " and trace" if traced else ""
    if document.get("chaos") is not None:
        extras += " and chaos log"
    print(
        f"replay OK: snapshot{extras} identical to "
        f"{Path(args.recording).name} "
        f"({len(recorded.counters)} counters, {len(recorded.histograms)} histograms, "
        f"{recorded.simulated_seconds:.3f} simulated seconds)"
    )
    return 0
