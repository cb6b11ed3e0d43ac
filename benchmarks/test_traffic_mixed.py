"""Mixed YCSB-style traffic across a node-add rebalance.

Not one of the paper's numbered figures, but its Figure 7c story as
first-class telemetry: the committed ``examples/scenarios/traffic_storm.toml``
runs a zipfian YCSB-A mix warmup → steady → spike → ramp, the spike lands
while the cluster rebalances onto an extra node, and the metrics registry
reports tail write latency broken out by cluster phase (steady vs
rebalance-in-flight).  The spec's ``[checks]`` carry the storm's claims.
"""

from pathlib import Path

from conftest import print_figure

from repro.metrics import PHASE_REBALANCE, PHASE_STEADY
from repro.scenario import load_scenario, run_scenario

SPEC = Path(__file__).resolve().parents[1] / "examples" / "scenarios" / "traffic_storm.toml"


def test_traffic_mixed_smoke(benchmark):
    spec = load_scenario(SPEC)
    result = benchmark.pedantic(lambda: run_scenario(spec), rounds=1, iterations=1)
    print_figure(
        "Traffic: YCSB-A zipfian mix across a node-add rebalance "
        "(per-op simulated latency by cluster phase)",
        result.render(),
    )
    assert result.passed

    # Both phases produced update samples (the spike genuinely overlapped the
    # rebalance) and reads interleaved with the protocol phases.
    assert result.snapshot.histogram_count("update", PHASE_REBALANCE) > 0
    assert result.snapshot.histogram_count("update", PHASE_STEADY) > 0
    assert result.snapshot.histogram_count("read", PHASE_REBALANCE) > 0

    # Same spec, same seed: the traffic engine is deterministic end to end.
    assert run_scenario(spec).snapshot == result.snapshot
