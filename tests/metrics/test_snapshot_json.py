"""MetricsSnapshot JSON export: the persist/replay contract.

Bench runs and the autopilot persist telemetry as JSON artifacts; the
round trip must be lossless so a replayed snapshot still satisfies the
determinism contract (snapshot equality).
"""

import json

import pytest

from repro.common.events import EventBus
from repro.metrics import MetricsRegistry, MetricsSnapshot


def populated_registry():
    bus = EventBus()
    registry = MetricsRegistry().attach(bus)
    for index in range(50):
        bus.emit("op.read", latency_seconds=0.001 * (index + 1), records=1, dataset="t")
    bus.emit("op.insert", latency_seconds=0.004, records=32, dataset="t")
    bus.emit("rebalance.start", old_nodes=3, target_nodes=4)
    bus.emit("op.update", latency_seconds=0.008, records=1, dataset="t")
    bus.emit("rebalance.error", target_nodes=4, error="boom")
    bus.emit("node.provision", node="nc3", nodes=4)
    bus.emit("autopilot.start", policy="CostAware")
    bus.emit("autopilot.decision", action="add", target_nodes=4, outcome="executed")
    return registry


class TestRoundTrip:
    def test_round_trip_equality(self):
        snapshot = populated_registry().snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored == snapshot

    def test_round_trip_preserves_histogram_tuples(self):
        snapshot = populated_registry().snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        for key, value in restored.histograms.items():
            assert isinstance(value, tuple)
            assert isinstance(value[0], tuple)
            assert value == snapshot.histograms[key]

    def test_round_trip_of_empty_snapshot(self):
        snapshot = MetricsRegistry().snapshot()
        assert MetricsSnapshot.from_json(snapshot.to_json()) == snapshot

    def test_gauge_none_survives(self):
        registry = MetricsRegistry()
        registry.gauge("unset")  # value stays None
        snapshot = registry.snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored.gauges["unset"] is None
        assert restored == snapshot

    def test_histogram_count_accessor_works_after_restore(self):
        snapshot = populated_registry().snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored.histogram_count("read", "steady") == 50
        assert restored.histogram_count("update", "rebalance") == 1


class TestDocumentShape:
    def test_json_is_stable_and_sorted(self):
        snapshot = populated_registry().snapshot()
        assert snapshot.to_json() == snapshot.to_json()
        document = json.loads(snapshot.to_json())
        assert document["version"] == 1
        assert list(document["counters"]) == sorted(document["counters"])

    def test_indent_pretty_prints(self):
        snapshot = populated_registry().snapshot()
        assert "\n" in snapshot.to_json(indent=2)

    def test_autopilot_counters_survive_the_trip(self):
        snapshot = populated_registry().snapshot()
        restored = MetricsSnapshot.from_json(snapshot.to_json())
        assert restored.counters["autopilot.decision"] == 1
        assert restored.counters["autopilot.start"] == 1

    def test_unknown_version_rejected(self):
        snapshot = populated_registry().snapshot()
        document = json.loads(snapshot.to_json())
        document["version"] = 99
        with pytest.raises(ValueError, match="version"):
            MetricsSnapshot.from_json(json.dumps(document))
