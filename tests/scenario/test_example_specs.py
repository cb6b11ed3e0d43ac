"""Round-trip contract for every committed spec under examples/scenarios/.

Each top-level spec must (1) parse and survive the mapping round trip, (2) run at
smoke scale without raising, and (3) replay to a zero-diff snapshot — the
determinism contract ``python -m repro replay`` enforces in CI at full
scale.  Checks tuned for full scale are *evaluated* but not asserted here
(a 40-op smoke run cannot trip the autopilot).
"""

from pathlib import Path

import pytest

from repro.scenario import (
    ScenarioSpec,
    diff_snapshots,
    load_scenario,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
SPEC_PATHS = sorted(SCENARIO_DIR.glob("*.toml"))
#: The paper's figures (Figs. 6-9): parsed and round-tripped here, run by the
#: figure benchmarks under benchmarks/.
PAPER_SPEC_PATHS = sorted((SCENARIO_DIR / "paper").glob("*.toml"))


def test_the_example_specs_are_committed():
    names = {path.stem for path in SPEC_PATHS}
    assert {
        "autopilot_storm",
        "elastic_scaling",
        "fault_tolerant_rebalance",
        "quickstart",
        "tpch_analytics",
        "traffic_storm",
    } <= names


def test_every_paper_figure_is_committed():
    assert {path.stem for path in PAPER_SPEC_PATHS} == {
        "fig6",
        "fig7",
        "fig7c",
        "fig8",
        "fig8_lazy_cleanup",
        "fig9",
    }


@pytest.mark.parametrize("path", SPEC_PATHS + PAPER_SPEC_PATHS, ids=lambda p: p.stem)
def test_spec_parses_and_round_trips(path):
    spec = load_scenario(path)
    assert spec.name == path.stem
    assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_spec_runs_at_smoke_scale_and_replays_zero_diff(path):
    spec = load_scenario(path).scaled_down()
    first = run_scenario(spec)
    assert first.snapshot is not None
    replayed = run_scenario(spec, seed=first.seed)
    assert diff_snapshots(first.snapshot, replayed.snapshot) == []
