"""Span-tree construction: nesting, timing reconstruction, lifecycle."""

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.trace import Span, TraceSession


def config(num_nodes=3, seed=11):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        strategy="dynahash",
        seed=seed,
    )


def rows(count, start=0):
    return [{"k": key, "payload": "x" * 64} for key in range(start, start + count)]


def by_name(spans, name):
    return [span for span in spans if span.name == name]


class TestSessionSpan:
    def test_root_session_span_covers_the_clock(self):
        db = Database(config())
        trace = db.start_trace()
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(200))
        for key in range(20):
            dataset.get(key)
        final_clock = db.metrics.clock.now
        db.close()
        (root,) = by_name(trace.spans, "session")
        assert root.parent_id is None
        assert root.category == "session"
        assert root.start == 0.0
        assert root.end >= final_clock
        assert root.attributes["nodes"] == 3

    def test_closing_the_database_finishes_the_trace(self):
        db = Database(config())
        trace = db.start_trace()
        db.close()
        assert trace.finished
        assert all(span.duration >= 0.0 for span in trace.spans)

    def test_start_trace_replaces_a_prior_session(self):
        with Database(config()) as db:
            first = db.start_trace()
            second = db.start_trace()
            assert first.finished
            assert not second.finished
            assert db.trace_session is second


class TestOpSpans:
    def test_consecutive_reads_aggregate_into_one_run(self):
        with Database(config()) as db:
            trace = db.start_trace()
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(100))
            started = db.metrics.clock.now
            for key in range(25):
                dataset.get(key)
            ended = db.metrics.clock.now
            trace.finish()
        reads = by_name(trace.spans, "ops/read")
        assert len(reads) == 1
        (span,) = reads
        assert span.attributes["count"] == 25
        assert span.attributes["dataset"] == "t"
        assert span.start == pytest.approx(started)
        assert span.end == pytest.approx(ended)

    def test_verb_change_breaks_the_run(self):
        with Database(config()) as db:
            trace = db.start_trace()
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(100))
            for key in range(5):
                dataset.get(key)
            dataset.upsert([{"k": 1, "payload": "y"}])
            for key in range(5):
                dataset.get(key)
            trace.finish()
        assert len(by_name(trace.spans, "ops/read")) == 2
        assert len(by_name(trace.spans, "ops/update")) == 1

    def test_move_windows_of_concurrent_writes_are_marked_batched_spans(self):
        with Database(config()) as db:
            trace = db.start_trace()
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(600))
            report = db.rebalance(add=1, concurrent_rows={"t": rows(41, start=5000)})
            trace.finish()
        moves = sum(r.buckets_moved for r in report.dataset_reports)
        writes = by_name(trace.spans, "ops/update")
        # One span per move window, plus the trailing window's.
        assert 1 < len(writes) <= moves + 1
        assert sum(span.attributes["count"] for span in writes) == 41
        for span in writes:
            assert span.attributes["concurrent"] is True
            assert span.attributes["batched"] is True
            assert span.attributes["records"] == span.attributes["count"]

    def test_span_payload_shape(self):
        span = Span(
            span_id=3, parent_id=1, name="ops/read", category="ops", start=1.5, duration=0.5
        )
        assert span.end == 2.0
        assert span.to_payload() == {
            "id": 3,
            "parent": 1,
            "name": "ops/read",
            "cat": "ops",
            "start": 1.5,
            "dur": 0.5,
            "attrs": {},
        }


class TestRebalanceSpans:
    @pytest.fixture
    def traced_rebalance(self):
        db = Database(config())
        trace = db.start_trace()
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(600))
        report = db.rebalance(add=1)
        db.close()
        return trace, report

    def test_rebalance_span_duration_comes_from_the_report(self, traced_rebalance):
        trace, report = traced_rebalance
        (span,) = by_name(trace.spans, "rebalance")
        assert span.duration == pytest.approx(report.simulated_seconds)
        assert span.attributes["committed"] is True
        assert span.attributes["new_nodes"] == 4

    def test_drained_resize_keeps_its_length_whatever_the_subscriber_order(self):
        # Subscribed ahead of the metrics registry, the tracer sees
        # rebalance.complete before the registry charges the resize to the
        # clock; the root span still closes after the report's seconds.
        db = Database(config())
        db.metrics.detach()
        trace = db.start_trace()
        db.metrics.attach(db.events)
        db.create_dataset("t", primary_key="k").insert(rows(600))
        report = db.rebalance(add=1)
        db.close()
        (span,) = by_name(trace.spans, "rebalance")
        assert report.simulated_seconds > 0
        assert span.duration == pytest.approx(report.simulated_seconds)

    def test_phase_spans_tile_the_dataset_span(self, traced_rebalance):
        trace, _ = traced_rebalance
        (dataset_span,) = by_name(trace.spans, "rebalance/t")
        phases = [
            span
            for span in trace.spans
            if span.parent_id == dataset_span.span_id and span.name.startswith("phase/")
        ]
        assert [span.name for span in phases] == [
            "phase/initialization",
            "phase/data_movement",
            "phase/finalization",
        ]
        cursor = dataset_span.start
        for span in phases:
            assert span.start == pytest.approx(cursor)
            cursor += span.duration
        assert cursor == pytest.approx(dataset_span.end)

    def test_bucket_moves_tile_the_data_movement_phase(self, traced_rebalance):
        trace, report = traced_rebalance
        (phase,) = by_name(trace.spans, "phase/data_movement")
        moves = [span for span in trace.spans if span.parent_id == phase.span_id]
        assert moves, "a committed resize must ship at least one bucket"
        assert len(moves) == report.dataset_reports[0].buckets_moved
        assert sum(span.duration for span in moves) == pytest.approx(phase.duration)
        assert all(span.name.startswith("move/") for span in moves)
        assert all(span.attributes["payload_bytes"] > 0 for span in moves)

    def test_commit_mark_is_recorded(self, traced_rebalance):
        trace, _ = traced_rebalance
        (commit,) = by_name(trace.spans, "commit")
        assert commit.duration == 0.0
        assert commit.attributes["buckets_moved"] >= 1


class TestFaultedRebalance:
    def test_error_closes_the_rebalance_span_with_the_fault(self):
        from repro.api import FaultInjected

        db = Database(config())
        trace = db.start_trace()
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(600))
        with pytest.raises(FaultInjected):
            db.rebalance(add=1, fault_sites=["cc_fail_before_commit"])
        db.recover()
        db.close()
        (span,) = by_name(trace.spans, "rebalance")
        assert "error" in span.attributes
        (recovery,) = by_name(trace.spans, "recovery")
        assert recovery.duration == 0.0


class TestTraceSessionPayload:
    def test_payload_shape_and_version(self):
        with Database(config()) as db:
            trace = db.start_trace()
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(50))
            trace.finish()
            payload = trace.to_payload(scenario="unit", seed=11)
        assert payload["version"] == 1
        assert payload["scenario"] == "unit"
        assert payload["seed"] == 11
        assert payload["interval_seconds"] == 0.25
        assert {series["name"] for series in payload["series"]} >= {
            "rebalance.in_flight",
            "write.p99.rolling",
        }
        assert payload["spans"][0]["name"] == "session"

    def test_tracing_is_off_by_default(self):
        with Database(config()) as db:
            assert db.trace_session is None
            assert db.cluster.heat is None
            assert not db.events.has_subscribers("trace.phase.start")
            assert not db.events.has_subscribers("rebalance.bucket_move")
