#!/usr/bin/env python3
"""Reachability audit: the functions in ``src/repro`` that no committed run calls.

Runs, in this process under a ``sys.setprofile`` hook, every committed spec
(run/record/replay/inspect, as tables and as JSON, or sweep/compare), ``trace``,
the commands CI runs, the examples and one smoke round of each e2e workload,
untraced and traced, then lists the functions never entered.  ``--check`` prints
only their count and exits 1 above CEILING, a ratchet that a change lowers when
it deletes or reaches surface.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "examples" / "scenarios"
CEILING = 233  # never-called functions at the last change that moved it
CANARY = '[scenario]\nname = "canary"\n[workload]\ninitial_records = 10\n[[steps]]\n'
STORMS = {"traffic_storm": (["trace.enabled=true"], ["ops_per_sec=-0.9"]),  # (axes, gates)
          "chaos_storm": ([], ["routing_miss_rate=0.25", "write_p99_ms[steady]=0.20"])}


def defined_functions():
    """{(file, first line): (label, lines)} for every def in src/repro."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                label = f"{path.relative_to(REPO / 'src')}:{node.lineno} {node.name}"
                found[(str(path), first)] = (label, node.end_lineno - first + 1)
    return found


def commands(tmp):
    """(label, run returning an exit code, expected exit code or None), in order."""
    from repro.cli import main

    def cli(*argv, expect=0):
        argv = [str(arg) for arg in argv]
        return " ".join(argv), lambda: main(argv), expect

    def script(path, *argv):
        def run():
            sys.argv = [str(path), *argv]
            runpy.run_path(str(path), run_name="__main__")
        return f"{path.name} {' '.join(argv)}", run, 0

    for spec in sorted(SCENARIOS.glob("*.toml")) + sorted(SCENARIOS.glob("paper/*.toml")):
        out = tmp / spec.stem
        if "sweep" in tomllib.loads(spec.read_text()):
            yield cli("sweep", spec, "-q", "--jobs", "1", "--out-dir", out)
            yield cli("compare", out / "sweep.manifest.json", "-q")
        else:
            for command in (("run", spec, "--record"), ("replay",), ("inspect",),
                            ("inspect", "--format", "json")):
                yield cli(*command, f"{out}.json")
    for extra in (["-q"], ["--timeline-csv", tmp / "timeline.csv"]):
        yield cli("trace", tmp / "traced_rebalance.json", "--out", tmp / "trace.json", *extra)
    for spec, (axes, gates) in STORMS.items():
        out = tmp / f"{spec}_sweep"
        axes = ["strategy=dynahash,statichash,consistenthash", *axes]
        yield cli("sweep", SCENARIOS / f"{spec}.toml", *(f"--axis={axis}" for axis in axes),
                  "--jobs", "1", "--out-dir", out)
        yield cli("compare", out / "sweep.manifest.json", *(f"--gate={gate}" for gate in gates),
                  "--html", f"{out}.html")
    for steps in ('kind = ["a"]\n', 'kind = "rebalance"\nremove = 10\n'):
        (tmp / "canary.toml").write_text(CANARY + steps)
        yield cli("run", tmp / "canary.toml", expect=2)
    yield cli("bench", "--dry-run")
    # Timings under a profiler mean nothing, so the perf gate's verdict is not checked.
    yield cli("bench", "--check", REPO / "benchmarks/baselines/BENCH_micro.json",
              "--write-baseline", tmp / "BENCH_micro.json", expect=None)
    yield cli("lint", "--format", "github")
    yield cli("lint", REPO / "tests/analysis/fixtures/known_bad.py", expect=1)
    yield script(REPO / "scripts/regen_goldens.py", "--check")
    for example in sorted((REPO / "examples").glob("*.py")):
        yield script(example)
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    import run as e2e  # the e2e harness, imported beside its workloads
    for workload in e2e.WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--scale", "smoke", "--repeats", "1",
                    "--trace", trace, "--out", str(tmp / "e2e")]
            yield f"e2e {workload} --trace {trace}", lambda argv=argv: e2e.main(argv), 0


def main(argv):
    os.environ["PYTHONHASHSEED"] = "0"  # run.py re-execs sys.argv without it
    sys.path.insert(0, str(REPO / "src"))
    defined, entered, failures = defined_functions(), set(), 0
    with tempfile.TemporaryDirectory(prefix="reach_") as tmp:
        sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
        for label, run, expect in commands(Path(tmp)):
            with contextlib.redirect_stdout(buf := io.StringIO()), contextlib.redirect_stderr(buf):
                try:
                    status = run() or 0
                except SystemExit as stop:  # the scripts end in sys.exit
                    status = stop.code or 0
            if expect is not None and status != expect:
                print(f"error: {label}: exit {status}, expected {expect}")
                failures += 1
        sys.setprofile(None)
    called = {(code.co_filename, code.co_firstlineno) for code in entered}
    missed = sorted(info for key, info in defined.items() if key not in called)
    if "--check" not in argv:
        for label, lines in missed:
            print(f"{lines:5d}  {label}")
    print(f"{len(missed)} of {len(defined)} functions in src/repro "
          f"({sum(lines for _, lines in missed)} lines) never called; ceiling {CEILING}")
    return int(failures > 0 or ("--check" in argv and len(missed) > CEILING))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
