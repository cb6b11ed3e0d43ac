"""What every committed scenario computes, and what a phase rebalance shows.

For every spec under ``examples/scenarios/`` (at smoke scale) the outcome is
pinned against ``scenario_outcomes_golden.json``:

* the final dataset contents (row-level sha256 fingerprints),
* the per-verb op and record counters (including the steady/rebalance
  phase splits) and the ingest/dataset counters,
* the chaos schedule (clock positions excluded: *when* a window is
  announced moves with the rebalance pricing, *what* is injected may not).

The golden was first written by the run-to-completion engine that per-bucket
scheduling replaced, so these pin that the replacement changed only time.

A rebalance inside a workload phase runs on the event scheduler: its bucket
moves and the phase's foreground traffic share one clock, so the paper's
Figure 7c shape holds — foreground write p99 during a rebalance is no better
than steady-state write p99 — and a traced run shows a move span overlapping
an op span.
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

from repro.metrics.histogram import LatencyHistogram
from repro.scenario import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[2]
SCENARIO_DIR = ROOT / "examples" / "scenarios"
SPEC_PATHS = sorted(SCENARIO_DIR.glob("*.toml"))
OUTCOMES_GOLDEN = ROOT / "tests" / "integration" / "fixtures" / "scenario_outcomes_golden.json"


def _regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_goldens", ROOT / "scripts" / "regen_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _outcome(path):
    return _regen_module().scenario_outcome(path)


def _pinned(path):
    golden = json.loads(OUTCOMES_GOLDEN.read_text())
    assert path.stem in golden, f"{path.name} has no pinned outcome; rerun regen_goldens.py"
    return golden[path.stem]


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
class TestPinnedOutcomes:
    def test_final_dataset_contents_identical(self, path):
        outcome = _outcome(path)
        assert outcome["fingerprints"], "runner produced no fingerprints"
        assert outcome["fingerprints"] == _pinned(path)["fingerprints"]

    def test_per_verb_op_counts_identical(self, path):
        outcome = _outcome(path)
        # Pure rebalance benchmarks (e.g. elastic_scaling) run no ops at
        # smoke scale; ingest/dataset counters still pin them.
        assert outcome["counters"], "scenario recorded no pinned counters"
        assert outcome["counters"] == _pinned(path)["counters"]

    def test_chaos_schedules_identical(self, path):
        assert _outcome(path)["chaos"] == _pinned(path)["chaos"]


# Scenarios whose smoke-scale run records foreground writes both during a
# rebalance and at steady state — the precondition for the Figure 7c check.
FIG7C_SCENARIOS = ["chaos_storm", "traffic_storm"]


@pytest.mark.parametrize("name", FIG7C_SCENARIOS)
def test_write_p99_during_rebalance_at_least_steady(name):
    spec = load_scenario(SCENARIO_DIR / f"{name}.toml").scaled_down()
    result = run_scenario(spec)
    histograms = result.snapshot.histograms
    assert "update[rebalance]" in histograms, "no writes landed during a rebalance"
    rebalance = LatencyHistogram.from_snapshot(histograms["update[rebalance]"])
    steady = LatencyHistogram.from_snapshot(histograms["update[steady]"])
    assert rebalance.count and steady.count
    assert rebalance.percentile(0.99) >= steady.percentile(0.99)


def test_rebalance_has_genuine_overlap():
    """A traced run must show a move span overlapping an op span.

    This is the whole point of running the rebalance on the scheduler: data
    movement and foreground traffic sharing the clock.  The tracer lays a
    phase the clock moved through out on real clock readings (see
    ``Tracer``), which makes the overlap observable.
    """
    spec = load_scenario(SCENARIO_DIR / "chaos_storm.toml")
    result = run_scenario(spec)
    spans = result.trace["spans"]
    moves = [s for s in spans if s["name"].startswith("move/")]
    ops = [s for s in spans if s["cat"] == "ops"]
    assert moves and ops
    assert any(
        max(m["start"], o["start"]) < min(m["start"] + m["dur"], o["start"] + o["dur"])
        for m in moves
        for o in ops
    ), "no move span overlaps any ops span"
