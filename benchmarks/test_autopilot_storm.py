"""Autopilot storm: the control plane closing the loop under traffic.

The committed ``examples/scenarios/autopilot_storm.toml``: a hotspot storm
with no scheduled rebalance; the cost-aware policy detects the capacity
trajectory, simulates candidate plans, and executes the cheapest one mid-run.
The bench prints the run report (decision log plus the phase-tagged latency
table) and asserts the loop actually closed.
"""

from pathlib import Path

from conftest import print_figure

from repro.scenario import load_scenario, run_scenario

SPEC = Path(__file__).resolve().parents[1] / "examples" / "scenarios" / "autopilot_storm.toml"


def test_autopilot_storm_smoke(benchmark):
    spec = load_scenario(SPEC)
    result = benchmark.pedantic(lambda: run_scenario(spec), rounds=1, iterations=1)
    print_figure(
        "Autopilot: cost-aware policy under a hotspot storm "
        "(decision log + per-op simulated latency by cluster phase)",
        result.render(),
    )
    assert result.passed

    # The loop closed: at least one policy-triggered rebalance, no explicit
    # rebalance anywhere in the schedule.
    assert result.snapshot.counters["autopilot.decision"] >= 1
    assert result.snapshot.counters["autopilot.rebalance.complete"] >= 1

    # Same spec, same seed: identical decisions and identical telemetry.
    assert run_scenario(spec).snapshot == result.snapshot
