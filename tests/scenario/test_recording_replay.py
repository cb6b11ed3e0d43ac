"""Recordings: persistence round trip, replay zero-diff, divergence reporting."""

import json

import pytest

from repro.scenario import (
    diff_snapshots,
    load_recording,
    parse_scenario,
    recording_payload,
    run_scenario,
    snapshot_from_recording,
    spec_from_recording,
    write_recording,
)
from repro.scenario.recording import RECORDING_VERSION
from repro.scenario.spec import ScenarioSpecError

SPEC_TEXT = """
[scenario]
name = "rec"

[cluster]
nodes = 3
partitions_per_node = 2
[cluster.lsm]
memory_component_bytes = "32 KiB"

[workload]
initial_records = 80
mix = "A"

[[workload.phases]]
name = "steady"
ops = 60
"""


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    result = run_scenario(parse_scenario(SPEC_TEXT))
    path = tmp_path_factory.mktemp("recordings") / "rec.json"
    write_recording(result, path)
    return result, path


class TestRecording:
    def test_payload_is_json_serialisable_and_versioned(self, recorded):
        result, _ = recorded
        payload = recording_payload(result)
        text = json.dumps(payload)  # must not raise
        assert json.loads(text)["version"] == RECORDING_VERSION
        assert payload["seed"] == result.seed

    def test_written_recording_loads_and_restores_both_halves(self, recorded):
        result, path = recorded
        document = load_recording(path)
        assert spec_from_recording(document) == result.spec
        assert snapshot_from_recording(document) == result.snapshot

    def test_replaying_the_embedded_spec_reports_zero_diff(self, recorded):
        result, path = recorded
        document = load_recording(path)
        replayed = run_scenario(spec_from_recording(document), seed=document["seed"])
        assert diff_snapshots(snapshot_from_recording(document), replayed.snapshot) == []

    def test_missing_recording_is_actionable(self, tmp_path):
        with pytest.raises(ScenarioSpecError, match="not found"):
            load_recording(tmp_path / "nope.json")

    def test_non_recording_json_is_actionable(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ScenarioSpecError, match="not a scenario recording"):
            load_recording(path)

    def test_unsupported_version_is_rejected(self, recorded, tmp_path):
        result, _ = recorded
        payload = recording_payload(result)
        payload["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioSpecError, match="version 99"):
            load_recording(path)


class TestDiff:
    def test_identical_snapshots_diff_empty(self, recorded):
        result, _ = recorded
        assert diff_snapshots(result.snapshot, result.snapshot) == []

    def test_counter_divergence_is_named(self, recorded):
        result, path = recorded
        document = load_recording(path)
        document["snapshot"]["counters"]["ops.total"] += 1
        perturbed = snapshot_from_recording(document)
        differences = diff_snapshots(perturbed, result.snapshot)
        assert any("counters[ops.total]" in line for line in differences)

    def test_missing_histogram_is_named(self, recorded):
        result, path = recorded
        document = load_recording(path)
        key, _ = sorted(document["snapshot"]["histograms"].items())[0]
        del document["snapshot"]["histograms"][key]
        perturbed = snapshot_from_recording(document)
        differences = diff_snapshots(perturbed, result.snapshot)
        assert any(key in line and "only in the replay" in line for line in differences)

    def test_simulated_time_divergence_is_named(self, recorded):
        result, path = recorded
        document = load_recording(path)
        document["snapshot"]["simulated_seconds"] += 1.0
        perturbed = snapshot_from_recording(document)
        differences = diff_snapshots(perturbed, result.snapshot)
        assert any("simulated_seconds" in line for line in differences)
