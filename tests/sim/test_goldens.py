"""Committed scenario recordings must replay zero-diff, forever.

The goldens under ``goldens/`` are full recordings (snapshot + trace + chaos
log) of smoke-scale committed scenarios.  They are regenerated only
deliberately, via ``python scripts/regen_goldens.py``.
"""

from pathlib import Path

import pytest

from repro.scenario import (
    diff_chaos,
    diff_snapshots,
    diff_traces,
    load_recording,
    load_scenario,
    run_scenario,
    snapshot_from_recording,
    spec_from_recording,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_PATHS = sorted(GOLDEN_DIR.glob("*.json"))
SCENARIO_DIR = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def test_the_goldens_are_committed():
    names = {path.name for path in GOLDEN_PATHS}
    assert {"chaos_storm.json", "traced_rebalance.json"} <= names


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=lambda p: p.stem)
def test_golden_embeds_the_committed_scenario_at_smoke_scale(path):
    spec = spec_from_recording(load_recording(path))
    assert spec == load_scenario(SCENARIO_DIR / f"{path.stem}.toml").scaled_down()


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=lambda p: p.stem)
def test_golden_replays_zero_diff(path):
    document = load_recording(path)
    replayed = run_scenario(spec_from_recording(document), seed=document["seed"])
    assert diff_snapshots(snapshot_from_recording(document), replayed.snapshot) == []
    assert diff_traces(document.get("trace"), replayed.trace) == []
    recorded_chaos = document.get("chaos")
    replayed_chaos = (
        {
            "events": [dict(event) for event in replayed.chaos_events],
            "faulted_site": replayed.faulted_site,
            "recovery_seconds": replayed.recovery_seconds,
        }
        if replayed.chaos_events
        else None
    )
    assert diff_chaos(recorded_chaos, replayed_chaos) == []


def test_golden_trace_contains_overlapping_move_and_op_spans():
    """The committed trace itself must prove the interleaving (Fig 7c setup).

    Only chaos_storm qualifies: its rebalance runs *inside* a workload phase,
    so foreground ops share the clock with bucket moves.  traced_rebalance
    resizes via post-workload steps — nothing to overlap with, by design.
    """
    spans = load_recording(GOLDEN_DIR / "chaos_storm.json")["trace"]["spans"]
    moves = [s for s in spans if s["name"].startswith("move/")]
    ops = [s for s in spans if s["cat"] == "ops"]
    assert any(
        max(m["start"], o["start"]) < min(m["start"] + m["dur"], o["start"] + o["dur"])
        for m in moves
        for o in ops
    ), "committed golden shows no move/op overlap"
