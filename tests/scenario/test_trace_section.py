"""The [trace] spec section, recording embedding, and trace diffing."""

import json

import pytest

from repro.scenario import (
    ScenarioSpecError,
    TraceSection,
    diff_traces,
    load_recording,
    parse_scenario,
    recording_payload,
    run_scenario,
    spec_from_recording,
    write_recording,
)
from repro.scenario.recording import RECORDING_VERSION

TRACED_SPEC = """\
[scenario]
name = "traced"

[cluster]
nodes = 3
partitions_per_node = 2
seed = 13

[trace]
sample_interval_seconds = 0.5

[workload]
dataset = "t"
initial_records = 120

[[workload.phases]]
name = "steady"
ops = 60
"""


class TestTraceSection:
    def test_defaults(self):
        section = TraceSection.from_mapping({})
        assert section.enabled is True
        assert section.sample_interval_seconds == 0.25

    def test_round_trip_preserves_presence(self):
        # All-defaults [trace] must survive to_mapping: its *presence*
        # enables tracing, so dropping it would untrace the replay.
        section = TraceSection.from_mapping({})
        assert TraceSection.from_mapping(section.to_mapping()) == section
        assert "enabled" in section.to_mapping()

    def test_non_default_interval_round_trips(self):
        section = TraceSection.from_mapping({"sample_interval_seconds": 0.5})
        assert section.to_mapping()["sample_interval_seconds"] == 0.5
        assert TraceSection.from_mapping(section.to_mapping()) == section

    def test_rejects_unknown_keys_and_bad_interval(self):
        with pytest.raises(ScenarioSpecError):
            TraceSection.from_mapping({"cadence": 1})
        with pytest.raises(ScenarioSpecError):
            TraceSection.from_mapping({"sample_interval_seconds": 0})

    def test_spec_parses_and_round_trips_the_section(self):
        spec = parse_scenario(TRACED_SPEC)
        assert spec.trace is not None
        assert spec.trace.enabled
        assert spec.trace.sample_interval_seconds == 0.5
        again = type(spec).from_mapping(spec.to_mapping())
        assert again.trace == spec.trace

    def test_untraced_spec_has_no_section(self):
        spec = parse_scenario(TRACED_SPEC.replace("[trace]\nsample_interval_seconds = 0.5\n", ""))
        assert spec.trace is None
        assert "trace" not in spec.to_mapping()


class TestRecordingEmbed:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(parse_scenario(TRACED_SPEC))

    def test_run_produces_a_trace(self, result):
        assert result.trace is not None
        assert result.trace["version"] == 1
        assert result.trace["scenario"] == "traced"
        assert result.trace["seed"] == 13
        assert result.trace["interval_seconds"] == 0.5

    def test_payload_embeds_trace_at_recording_version(self, result):
        payload = recording_payload(result)
        assert payload["version"] == RECORDING_VERSION
        assert payload["trace"] == result.trace

    def test_untraced_recording_has_no_trace_key(self):
        untraced = run_scenario(
            parse_scenario(
                TRACED_SPEC.replace("[trace]\nsample_interval_seconds = 0.5\n", "")
            )
        )
        assert "trace" not in recording_payload(untraced)

    def test_written_recording_round_trips(self, result, tmp_path):
        path = write_recording(result, tmp_path / "rec.json")
        document = load_recording(path)
        assert diff_traces(document["trace"], result.trace) == []
        spec = spec_from_recording(document)
        assert spec.trace is not None  # replays re-enable tracing


class TestDiffTraces:
    def payload(self, **overrides):
        base = {
            "version": 1,
            "scenario": "unit",
            "seed": 1,
            "interval_seconds": 0.25,
            "spans": [
                {"id": 0, "parent": None, "name": "session", "cat": "session",
                 "start": 0.0, "dur": 1.0, "attrs": {}},
            ],
            "series": [{"name": "g", "times": [0.0], "values": [1.0]}],
            "heat": {"read": [["t", "0", 3]], "write": []},
        }
        base.update(overrides)
        return base

    def test_equal_payloads_diff_empty(self):
        assert diff_traces(self.payload(), self.payload()) == []

    def test_both_none_is_equal(self):
        assert diff_traces(None, None) == []

    def test_one_sided_trace_is_reported(self):
        assert diff_traces(self.payload(), None) == ["trace: missing from the replay"]
        assert diff_traces(None, self.payload()) == ["trace: missing from the recording"]

    def test_tuple_list_representation_does_not_diff(self):
        left = self.payload()
        right = json.loads(json.dumps(self.payload()))
        right["heat"]["read"] = [("t", "0", 3)]
        assert diff_traces(left, right) == []

    def test_span_divergence_is_localised(self):
        changed = self.payload()
        changed["spans"] = [dict(changed["spans"][0], dur=2.0)]
        differences = diff_traces(self.payload(), changed)
        assert any("trace.spans[0]" in line for line in differences)

    def test_series_divergence_names_the_series(self):
        changed = self.payload(series=[{"name": "g", "times": [0.0], "values": [9.0]}])
        differences = diff_traces(self.payload(), changed)
        assert any("trace.series[g]" in line for line in differences)

    def test_heat_divergence_is_reported(self):
        changed = self.payload(heat={"read": [], "write": []})
        assert "trace.heat: per-bucket heat tables differ" in diff_traces(
            self.payload(), changed
        )
