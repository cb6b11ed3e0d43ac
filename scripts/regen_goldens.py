#!/usr/bin/env python3
"""Regenerate every committed golden fixture from the current code, in one go.

Goldens pin behaviour, so they are only ever rewritten deliberately — after a
change that is *supposed* to alter what the simulator computes.  This script
is the single place that knows how each committed golden is produced:

* ``tests/integration/fixtures/driver_snapshots_golden.json`` — per-mix
  workload-driver snapshots (the PR-4 hot-path pins),
* ``tests/integration/fixtures/traffic_snapshot_golden.json`` — the snapshot
  of the SMOKE-scale traffic storm spec ``traffic_smoke.toml`` beside it,
* ``tests/integration/fixtures/scenario_outcomes_golden.json`` — what every
  committed spec computes at SMOKE scale (final dataset fingerprints, the
  ``ops.``/``records.``/``ingest.``/``datasets.`` counters, the chaos
  schedule without clock positions),
* ``tests/sim/goldens/<scenario>.json`` — full recordings (snapshot + trace
  + chaos log) of smoke-scale scenarios.

Usage::

    python scripts/regen_goldens.py            # rewrite all goldens
    python scripts/regen_goldens.py --check    # exit 1 if any golden is stale

``--check`` regenerates every golden in memory and byte-compares it against
the committed file — the CI gate that a behaviour-changing PR cannot forget
to refresh (or deliberately bless) its goldens.  A stale golden prints the
head of its unified diff, so a broken bit-identity points at the counter or
histogram that moved rather than just at the file.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, Dict

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

FIXTURES = ROOT / "tests" / "integration" / "fixtures"
SIM_GOLDENS = ROOT / "tests" / "sim" / "goldens"

SCENARIOS = ROOT / "examples" / "scenarios"

#: Scenarios committed as full-recording goldens (smoke scale).
RECORDED_SCENARIOS = ("chaos_storm", "traced_rebalance")

#: Counter prefixes pinned by the outcomes golden: what the protocol
#: computes.  ``rebalance.phase.*`` bookkeeping and every clock-derived
#: quantity are left to the full recordings.
OUTCOME_COUNTER_PREFIXES = ("ops.", "records.", "ingest.", "datasets.")


def driver_snapshots_golden() -> str:
    """Per-mix driver snapshots: tests/integration/test_hotpath_golden.py."""
    from repro.api import ClusterConfig, Database, WorkloadDriver, WorkloadSpec

    golden: Dict[str, dict] = {}
    for mix in ("A", "B", "E"):
        db = Database(ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash"))
        spec = WorkloadSpec(dataset="t", initial_records=500, mix=mix, default_ops=600)
        report = WorkloadDriver(db, spec).run()
        golden[mix] = json.loads(report.snapshot.to_json())
        db.close()
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def traffic_snapshot_golden() -> str:
    """The traffic_smoke.toml fixture spec: tests/integration/test_hotpath_golden.py."""
    from repro.scenario import load_scenario, run_scenario

    result = run_scenario(load_scenario(FIXTURES / "traffic_smoke.toml"))
    return result.snapshot.to_json(indent=2) + "\n"


def scenario_recording(name: str) -> str:
    """A smoke-scale scenario recording: tests/sim/test_goldens.py."""
    from repro.scenario import load_scenario, recording_payload, run_scenario

    spec = load_scenario(SCENARIOS / f"{name}.toml").scaled_down()
    result = run_scenario(spec)
    return json.dumps(recording_payload(result), sort_keys=True, indent=2) + "\n"


def scenario_outcome(path: Path) -> dict:
    """What one spec computes at smoke scale, clock positions stripped.

    A chaos event's ``at`` is where the runner observed it on the simulated
    clock, which moves whenever pricing does; what was injected, where, and
    with which declared window is the schedule itself.
    """
    from repro.scenario import load_scenario, run_scenario

    result = run_scenario(load_scenario(path).scaled_down())
    chaos = [
        json.dumps({k: v for k, v in event.items() if k != "at"}, sort_keys=True, default=str)
        for event in result.chaos_events
    ]
    return {
        "fingerprints": dict(result.dataset_fingerprints),
        "counters": {
            key: value
            for key, value in result.snapshot.counters.items()
            if key.startswith(OUTCOME_COUNTER_PREFIXES)
        },
        "chaos": [json.loads(event) for event in sorted(chaos)],
    }


def scenario_outcomes_golden() -> str:
    """Every committed spec's outcome: tests/sim/test_differential.py."""
    golden = {path.stem: scenario_outcome(path) for path in sorted(SCENARIOS.glob("*.toml"))}
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def generators() -> Dict[Path, Callable[[], str]]:
    table: Dict[Path, Callable[[], str]] = {
        FIXTURES / "driver_snapshots_golden.json": driver_snapshots_golden,
        FIXTURES / "traffic_snapshot_golden.json": traffic_snapshot_golden,
        FIXTURES / "scenario_outcomes_golden.json": scenario_outcomes_golden,
    }
    for name in RECORDED_SCENARIOS:
        table[SIM_GOLDENS / f"{name}.json"] = lambda name=name: scenario_recording(name)
    return table


def diff_head(committed: str, regenerated: str, rel: str, limit: int = 20) -> str:
    """The first ``limit`` lines of ``committed -> regenerated`` as a unified diff."""
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True),
        regenerated.splitlines(keepends=True),
        fromfile=f"{rel} (committed)",
        tofile=f"{rel} (regenerated)",
    )
    return "".join(itertools.islice(diff, limit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate in memory and exit 1 if any committed golden differs",
    )
    args = parser.parse_args(argv)

    stale = []
    for path, generate in sorted(generators().items()):
        rel = path.relative_to(ROOT)
        content = generate()
        if args.check:
            committed = path.read_text() if path.exists() else None
            if committed != content:
                state = "missing" if committed is None else "stale"
                print(f"{state}: {rel}")
                print(diff_head(committed or "", content, str(rel)), end="")
                stale.append(rel)
            else:
                print(f"ok: {rel}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            print(f"wrote {rel}")
    if stale:
        print(
            f"{len(stale)} golden(s) out of date — rerun `python scripts/regen_goldens.py` "
            "and commit the result"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
