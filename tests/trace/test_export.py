"""Chrome trace-event export and the terminal renderings."""

import json

from repro.trace import (
    chrome_trace_json,
    chrome_trace_payload,
    render_gantt,
    render_span_tree,
    timeline_csv,
)

PAYLOAD = {
    "version": 1,
    "scenario": "unit",
    "seed": 7,
    "interval_seconds": 0.25,
    "spans": [
        {
            "id": 0,
            "parent": None,
            "name": "session",
            "cat": "session",
            "start": 0.0,
            "dur": 2.0,
            "attrs": {"nodes": 3},
        },
        {
            "id": 1,
            "parent": 0,
            "name": "workload/steady",
            "cat": "workload",
            "start": 0.0,
            "dur": 1.0,
            "attrs": {"ops": 40},
        },
        {
            "id": 2,
            "parent": 1,
            "name": "ops/read",
            "cat": "ops",
            "start": 0.25,
            "dur": 0.5,
            "attrs": {"count": 10, "dataset": "t"},
        },
        {
            "id": 3,
            "parent": 0,
            "name": "rebalance",
            "cat": "rebalance",
            "start": 1.0,
            "dur": 0.75,
            "attrs": {"committed": True},
        },
        {
            "id": 4,
            "parent": 0,
            "name": "autopilot/evaluate",
            "cat": "autopilot",
            "start": 0.5,
            "dur": 0.0,
            "attrs": {"action": "none", "policy": "CostAware"},
        },
    ],
    "series": [
        {"name": "node.bytes.nc0", "times": [0.0, 1.0], "values": [100.0, 250.0]},
    ],
    "heat": {"read": [], "write": []},
}


class TestChromeTracePayload:
    def test_document_shape(self):
        document = chrome_trace_payload(PAYLOAD)
        assert set(document) == {"displayTimeUnit", "otherData", "traceEvents"}
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"] == {"clock": "simulated", "scenario": "unit", "seed": 7}

    def test_metadata_names_the_tracks(self):
        events = chrome_trace_payload(PAYLOAD)["traceEvents"]
        meta = [event for event in events if event["ph"] == "M"]
        assert {"process_name", "thread_name"} == {event["name"] for event in meta}
        thread_names = {
            event["tid"]: event["args"]["name"]
            for event in meta
            if event["name"] == "thread_name"
        }
        assert thread_names == {
            0: "session",
            1: "workload",
            2: "ops",
            3: "rebalance",
            4: "autopilot",
            5: "chaos",
        }

    def test_spans_become_complete_events_in_microseconds(self):
        events = chrome_trace_payload(PAYLOAD)["traceEvents"]
        (read,) = [event for event in events if event.get("name") == "ops/read"]
        assert read["ph"] == "X"
        assert read["ts"] == 250_000.0
        assert read["dur"] == 500_000.0
        assert read["tid"] == 2
        assert read["args"]["span_id"] == 2
        assert read["args"]["parent_id"] == 1
        assert read["args"]["count"] == 10

    def test_zero_duration_spans_become_instants(self):
        events = chrome_trace_payload(PAYLOAD)["traceEvents"]
        (mark,) = [event for event in events if event.get("name") == "autopilot/evaluate"]
        assert mark["ph"] == "i"
        assert mark["s"] == "t"
        assert "dur" not in mark

    def test_series_become_counter_events(self):
        events = chrome_trace_payload(PAYLOAD)["traceEvents"]
        counters = [event for event in events if event["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["name"] == "node.bytes.nc0"
        assert counters[0]["args"] == {"value": 100.0}
        assert counters[1]["ts"] == 1_000_000.0


class TestChromeTraceJson:
    def test_serialization_is_byte_stable(self):
        first = chrome_trace_json(PAYLOAD)
        second = chrome_trace_json(json.loads(json.dumps(PAYLOAD)))
        assert first == second
        assert first.endswith("\n")
        # Compact separators and sorted keys (the determinism contract for
        # trace files).
        assert '"traceEvents":' in first
        assert '": ' not in first
        assert json.loads(first)["traceEvents"]


class TestTerminalRenderings:
    def test_span_tree_indents_children(self):
        tree = render_span_tree(PAYLOAD)
        lines = tree.splitlines()
        assert lines[0].startswith("session")
        assert any(line.startswith("  workload/steady") for line in lines)
        assert any(line.startswith("    ops/read") for line in lines)
        assert "count=10" in tree

    def test_span_tree_empty(self):
        assert render_span_tree({"spans": []}) == "(no spans)"

    def test_gantt_shows_structural_rows_only(self):
        gantt = render_gantt(PAYLOAD)
        assert "workload/steady" in gantt
        assert "rebalance" in gantt
        assert "ops/read" not in gantt  # leaf op batches stay out of the Gantt
        assert "█" in gantt

    def test_gantt_empty(self):
        assert render_gantt({"spans": []}) == "(no phase spans)"


class TestTimelineCsv:
    SERIES = {
        "series": [
            # Deliberately out of name order: the export sorts by name.
            {"name": "z.late", "times": [1.0, 2.0], "values": [10.0, 20.0]},
            {"name": "a.early", "times": [0.0, 2.0], "values": [1.5, 2.5]},
        ]
    }

    def test_wide_shape_with_sorted_columns(self):
        csv = timeline_csv(self.SERIES)
        lines = csv.splitlines()
        assert lines[0] == "simulated_seconds,a.early,z.late"
        # Union of sample instants; a series has empty cells before its first
        # sample (e.g. a node provisioned mid-run).
        assert lines[1] == "0.0,1.5,"
        assert lines[2] == "1.0,,10.0"
        assert lines[3] == "2.0,2.5,20.0"
        assert csv.endswith("\n")

    def test_byte_stable_and_order_independent(self):
        reversed_series = {"series": list(reversed(self.SERIES["series"]))}
        assert timeline_csv(self.SERIES) == timeline_csv(self.SERIES)
        assert timeline_csv(self.SERIES) == timeline_csv(reversed_series)

    def test_numbers_format_like_the_chrome_export(self):
        payload = {"series": [{"name": "s", "times": [0.125], "values": [1e-07]}]}
        line = timeline_csv(payload).splitlines()[1]
        assert line == f"{json.dumps(0.125)},{json.dumps(1e-07)}"

    def test_header_fields_are_rfc4180_quoted(self):
        payload = {"series": [{"name": 'a,b"c', "times": [0.0], "values": [1.0]}]}
        assert timeline_csv(payload).splitlines()[0] == 'simulated_seconds,"a,b""c"'

    def test_empty_trace_is_just_the_header(self):
        assert timeline_csv({}) == "simulated_seconds\n"

    def test_real_payload_round_trips_columns(self):
        csv = timeline_csv(PAYLOAD)
        lines = csv.splitlines()
        assert lines[0] == "simulated_seconds,node.bytes.nc0"
        assert lines[1:] == ["0.0,100.0", "1.0,250.0"]
