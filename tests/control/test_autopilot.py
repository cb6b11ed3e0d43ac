"""Autopilot engine tests: guardrails, events, and the closed loop.

The last class pins the PR's acceptance criterion: a hotspot-spike workload
run with ``db.autopilot(policy="cost_aware")`` triggers at least one
rebalance with **no explicit** ``db.rebalance`` call, the ``autopilot.*``
decision events appear in the metrics snapshot, and the same seed reproduces
identical decisions.
"""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    Database,
    KIB,
    LSMConfig,
    OperationMix,
    Phase,
    Schedule,
    WorkloadDriver,
    WorkloadSpec,
)
from repro.common.errors import ConfigError
from repro.control import (
    ACTION_ADD,
    Autopilot,
    AutopilotPolicy,
    CostAwarePolicy,
    PolicyDecision,
)


def config(num_nodes=3, seed=2022):
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


class AlwaysAct(AutopilotPolicy):
    """Test double: demands the same rebalance on every evaluation."""

    name = "AlwaysAct"

    def __init__(self, action=ACTION_ADD):
        self.action = action
        self.calls = 0

    def decide(self, observation, planner):
        self.calls += 1
        target = observation.num_nodes + (1 if self.action == ACTION_ADD else 0)
        return PolicyDecision(self.action, target_nodes=target, reason="always")


class TestEngineBasics:
    def test_start_stop_events_and_gauge(self):
        with Database(config()) as db:
            seen = []
            db.on("autopilot.*", lambda event: seen.append(event.name))
            pilot = db.autopilot(check_every_ops=1000)
            assert pilot.active
            pilot.stop()
            assert not pilot.active
            assert seen == ["autopilot.start", "autopilot.stop"]
            snapshot = db.metrics.snapshot()
            assert snapshot.counters["autopilot.start"] == 1
            assert snapshot.counters["autopilot.stop"] == 1
            assert snapshot.gauges["autopilot.active"] == 0

    def test_database_close_stops_the_engine(self):
        db = Database(config())
        pilot = db.autopilot()
        db.close()
        assert not pilot.active

    def test_attaching_a_new_engine_stops_the_old(self):
        with Database(config()) as db:
            first = db.autopilot()
            second = db.autopilot(policy="cost_aware")
            assert not first.active
            assert second.active
            assert db.autopilot_engine is second

    def test_engine_option_validation(self):
        with Database(config()) as db:
            with pytest.raises(ConfigError):
                Autopilot(db, check_every_ops=0)
            with pytest.raises(ConfigError):
                Autopilot(db, cooldown_seconds=-1)
            with pytest.raises(ConfigError):
                Autopilot(db, hysteresis=0)

    def test_traffic_drives_evaluations(self):
        with Database(config()) as db:
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(50))
            policy = CostAwarePolicy(balance_bar=100.0)
            pilot = db.autopilot(policy=policy, check_every_ops=10)
            for key in range(35):
                dataset.get(key)
            pilot.stop()
            # The 35 reads after attach each count; the engine evaluated at
            # ops 10, 20, and 30 (and the quiet policy never acted).
            assert pilot._ops_seen == 35
            assert not pilot.decisions


class TestGuardrails:
    def _db_with_pilot(self, **engine_options):
        db = Database(config())
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(400))
        policy = AlwaysAct()
        pilot = db.autopilot(policy=policy, **engine_options)
        return db, dataset, policy, pilot

    def test_dry_run_never_rebalances(self):
        db, dataset, _policy, pilot = self._db_with_pilot(
            check_every_ops=10, dry_run=True
        )
        for key in range(60):
            dataset.get(key)
        assert pilot.rebalances_triggered == 0
        assert db.num_nodes == 3
        assert any(d.outcome == "dry_run" for d in pilot.decisions)
        assert db.metrics.snapshot().counters.get("autopilot.dry_run", 0) >= 1
        db.close()

    def test_cooldown_spaces_actions(self):
        db, dataset, _policy, pilot = self._db_with_pilot(
            check_every_ops=5, cooldown_seconds=1e9
        )
        for key in range(100):
            dataset.get(key)
        # The first action executes; every later decision hits the cooldown.
        assert pilot.rebalances_triggered == 1
        outcomes = {d.outcome for d in pilot.decisions}
        assert "cooldown" in outcomes
        db.close()

    def test_hysteresis_requires_consecutive_confirmations(self):
        db, dataset, policy, pilot = self._db_with_pilot(
            check_every_ops=10, hysteresis=3, cooldown_seconds=1e9
        )
        for key in range(25):
            dataset.get(key)
        # Two evaluations so far: both vetoed by hysteresis.
        assert pilot.rebalances_triggered == 0
        assert [d.outcome for d in pilot.decisions] == ["hysteresis", "hysteresis"]
        for key in range(15):
            dataset.get(key)
        # The third consecutive identical decision executes.
        assert pilot.rebalances_triggered == 1
        db.close()

    def test_max_rebalances_cap(self):
        db, dataset, _policy, pilot = self._db_with_pilot(
            check_every_ops=5, max_rebalances=1
        )
        for key in range(100):
            dataset.get(key)
        assert pilot.rebalances_triggered == 1
        assert any(d.outcome == "max_rebalances" for d in pilot.decisions)
        db.close()

    def test_max_one_rebalance_in_flight(self):
        """Op samples emitted *during* an autopilot rebalance (concurrent
        write replication) must not re-enter the engine."""
        db = Database(config())
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(400))
        pilot = db.autopilot(policy=AlwaysAct(), check_every_ops=1)
        in_flight_steps = []
        db.on(
            "rebalance.phase",
            lambda event: in_flight_steps.append(pilot.step()),
        )
        dataset.get(0)  # triggers the rebalance on the first evaluation
        assert pilot.rebalances_triggered >= 1
        # step() calls made mid-rebalance all returned None (skipped).
        assert in_flight_steps and all(step is None for step in in_flight_steps)
        db.close()

    def test_skipped_decisions_emit_skip_events(self):
        db, dataset, _policy, pilot = self._db_with_pilot(
            check_every_ops=5, cooldown_seconds=1e9
        )
        for key in range(50):
            dataset.get(key)
        counters = db.metrics.snapshot().counters
        assert counters.get("autopilot.skip", 0) >= 1
        assert counters["autopilot.decision"] == len(pilot.decisions)
        db.close()


class TestAcceptanceCriterion:
    """The ISSUE's acceptance test, as a reusable recipe."""

    def _storm_run(self, seed=2022):
        db = Database(config(seed=seed))
        pilot = db.autopilot(
            policy="cost_aware",
            policy_options={
                # Above the preload's natural skew; the spike's insert volume
                # drives the capacity trigger.
                "balance_bar": 1.8,
                "node_capacity_bytes": 52 * KIB,
            },
            check_every_ops=40,
            cooldown_seconds=0.05,
        )
        spike_mix = OperationMix(name="spike", read=0.3, insert=0.6, update=0.1)
        spec = WorkloadSpec(
            dataset="traffic",
            initial_records=600,
            mix="B",
            keys="zipfian",
            schedule=Schedule(
                (
                    Phase(name="warmup", ops=80, keys="uniform"),
                    Phase(name="steady", ops=240),
                    Phase(name="spike", ops=320, keys="hotspot", mix=spike_mix),
                    Phase(name="recover", ops=160),
                )
            ),
        )
        report = WorkloadDriver(db, spec).run()  # seeded from config.seed
        snapshot = db.metrics.snapshot()
        trace = pilot.decision_trace()
        nodes = db.num_nodes
        db.close()
        return report, snapshot, trace, nodes

    def test_hotspot_spike_triggers_policy_rebalance(self):
        report, snapshot, trace, nodes = self._storm_run()
        # ≥ 1 rebalance, with no rebalance= key anywhere in the schedule and
        # no explicit db.rebalance call.
        assert report.autopilot_rebalances >= 1
        assert all(phase.rebalance_report is None for phase in report.phases)
        assert nodes > 3
        # The autopilot.* decision events appear in the metrics snapshot.
        assert snapshot.counters["autopilot.decision"] >= 1
        assert snapshot.counters["autopilot.rebalance.start"] >= 1
        assert snapshot.counters["autopilot.rebalance.complete"] >= 1
        # And the run's report carries the decisions the engine took.
        assert len(report.autopilot_decisions) == len(trace)
        assert any(d.outcome == "executed" for d in report.autopilot_decisions)
        # Both latency populations exist: traffic genuinely overlapped the
        # policy-triggered rebalance.
        assert snapshot.histogram_count("read", "steady") > 0
        assert snapshot.counters["rebalance.completed"] >= 1

    def test_same_seed_reproduces_identical_decisions(self):
        first_report, first_snapshot, first_trace, _ = self._storm_run(seed=7)
        second_report, second_snapshot, second_trace, _ = self._storm_run(seed=7)
        assert first_trace == second_trace
        assert first_snapshot == second_snapshot
        assert [d.simulated_seconds for d in first_report.autopilot_decisions] == [
            d.simulated_seconds for d in second_report.autopilot_decisions
        ]

    def test_different_seed_may_differ_but_still_triggers(self):
        _report, snapshot, trace, _nodes = self._storm_run(seed=99)
        assert snapshot.counters["autopilot.rebalance.complete"] >= 1
        assert len(trace) >= 1
