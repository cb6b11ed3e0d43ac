"""Policy unit tests: registry, decisions, and each built-in policy."""

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.common.errors import ConfigError
from repro.control import (
    ACTION_ADD,
    ACTION_NONE,
    ACTION_REMOVE,
    ACTION_RETARGET,
    AutopilotPolicy,
    ClusterObservation,
    CostAwarePolicy,
    PolicyDecision,
    ThresholdPolicy,
    WhatIfPlanner,
    available_policies,
    policy_by_name,
    register_policy,
    resolve_policy,
)


def config(num_nodes=3):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        strategy="dynahash",
    )


def rows(count, start=0):
    return [{"k": key, "payload": "x" * 64} for key in range(start, start + count)]


@pytest.fixture
def loaded_db():
    with Database(config()) as db:
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert(rows(500))
        yield db


def observe(db):
    return ClusterObservation.capture(db)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_policies()
        assert {"threshold", "cost_aware"} <= set(names)
        assert "scheduled" not in names

    def test_aliases_resolve(self):
        assert isinstance(policy_by_name("cost"), CostAwarePolicy)
        assert isinstance(policy_by_name("skew"), ThresholdPolicy)

    def test_factory_kwargs_forwarded(self):
        policy = policy_by_name("threshold", skew_threshold=2.0)
        assert policy.skew_threshold == 2.0

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigError, match="cost_aware"):
            policy_by_name("nope")  # reprolint: allow[reg-unknown-policy] -- asserts the unknown-name error path

    def test_register_custom_policy(self):
        class AlwaysAdd(AutopilotPolicy):
            name = "AlwaysAdd"

            def decide(self, observation, planner):
                return PolicyDecision(
                    ACTION_ADD, target_nodes=observation.num_nodes + 1, reason="test"
                )

        register_policy("always_add", AlwaysAdd, aliases=("aa",))
        try:
            assert isinstance(policy_by_name("aa"), AlwaysAdd)
            assert isinstance(resolve_policy("always_add"), AlwaysAdd)
        finally:
            # keep the global registry clean for other tests
            from repro.control.policy import _POLICY_ALIASES, _POLICY_FACTORIES

            _POLICY_FACTORIES.pop("always_add", None)
            _POLICY_ALIASES.pop("always_add", None)
            _POLICY_ALIASES.pop("aa", None)

    def test_resolve_rejects_non_policy(self):
        with pytest.raises(ConfigError, match="decide"):
            resolve_policy(object())

    def test_resolve_rejects_options_with_instance(self):
        with pytest.raises(ConfigError, match="policy name"):
            resolve_policy(ThresholdPolicy(), skew_threshold=2.0)


class TestPolicyDecision:
    def test_action_validation(self):
        with pytest.raises(ConfigError):
            PolicyDecision("explode")

    def test_rebalance_actions_need_target(self):
        with pytest.raises(ConfigError):
            PolicyDecision(ACTION_ADD)

    def test_signature_identity(self):
        first = PolicyDecision(ACTION_ADD, target_nodes=4, reason="a")
        second = PolicyDecision(ACTION_ADD, target_nodes=4, reason="b")
        assert first.signature() == second.signature()
        assert PolicyDecision(ACTION_NONE).wants_rebalance is False
        assert first.wants_rebalance is True


class TestThresholdPolicy:
    def test_quiet_when_everything_clear(self, loaded_db):
        policy = ThresholdPolicy(skew_threshold=10.0)
        decision = policy.decide(observe(loaded_db), WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_NONE

    def test_capacity_pressure_adds_a_node(self, loaded_db):
        observation = observe(loaded_db)
        tight = int(observation.max_node_bytes / 0.9)  # peak utilization ~0.9
        policy = ThresholdPolicy(skew_threshold=10.0, node_capacity_bytes=tight)
        decision = policy.decide(observation, WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_ADD
        assert decision.target_nodes == observation.num_nodes + 1
        assert "capacity" in decision.reason

    def test_capacity_respects_max_nodes(self, loaded_db):
        observation = observe(loaded_db)
        tight = int(observation.max_node_bytes / 0.9)
        policy = ThresholdPolicy(
            skew_threshold=10.0,
            node_capacity_bytes=tight,
            max_nodes=observation.num_nodes,
        )
        assert policy.decide(observation, WhatIfPlanner(loaded_db)).action == ACTION_NONE

    def test_skew_triggers_retarget_when_buckets_can_move(self, loaded_db):
        from repro.control import PlanProjection

        class StubPlanner:
            def __init__(self, buckets_moved):
                self.buckets_moved = buckets_moved

            def project(self, target_nodes):
                return PlanProjection(
                    target_nodes=target_nodes,
                    feasible=True,
                    buckets_moved=self.buckets_moved,
                )

        observation = observe(loaded_db)
        policy = ThresholdPolicy(skew_threshold=1.0 + 1e-9)
        decision = policy.decide(observation, StubPlanner(buckets_moved=2))
        assert decision.action == ACTION_RETARGET
        assert decision.target_nodes == observation.num_nodes
        # Skew a rebalance cannot fix must not burn an empty rebalance.
        quiet = policy.decide(observation, StubPlanner(buckets_moved=0))
        assert quiet.action == ACTION_NONE

    def test_unfixable_skew_does_not_retarget(self, loaded_db):
        """The real planner: this layout's Algorithm 2 pass moves nothing at
        the current size, so the skew trigger stays quiet instead of looping
        no-op rebalances."""
        observation = observe(loaded_db)
        planner = WhatIfPlanner(loaded_db)
        assert planner.project(observation.num_nodes).buckets_moved == 0
        policy = ThresholdPolicy(skew_threshold=1.0 + 1e-9)
        assert policy.decide(observation, planner).action == ACTION_NONE

    def test_underutilization_removes_a_node(self, loaded_db):
        observation = observe(loaded_db)
        # A giant budget: mean utilization far below the low-water mark.
        policy = ThresholdPolicy(
            skew_threshold=10.0,
            node_capacity_bytes=observation.total_bytes * 100,
        )
        decision = policy.decide(observation, WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_REMOVE
        assert decision.target_nodes == observation.num_nodes - 1

    def test_p99_regression_uses_first_baseline(self, loaded_db):
        policy = ThresholdPolicy(skew_threshold=10.0, p99_regression_factor=2.0)
        observation = observe(loaded_db)
        assert observation.steady_write_p99 > 0
        # First evaluation arms the baseline without acting.
        assert policy.decide(observation, WhatIfPlanner(loaded_db)).action == ACTION_NONE
        assert policy._baseline_p99 == observation.steady_write_p99
        import dataclasses

        regressed = dataclasses.replace(
            observation, steady_write_p99=observation.steady_write_p99 * 3
        )
        decision = policy.decide(regressed, WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_ADD
        assert "regressed" in decision.reason
        # Acting re-baselines at the regressed level: the cumulative p99 can
        # never fall back, so the same episode must not re-fire forever.
        assert policy._baseline_p99 == regressed.steady_write_p99
        assert policy.decide(regressed, WhatIfPlanner(loaded_db)).action == ACTION_NONE

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(skew_threshold=0.5)
        with pytest.raises(ConfigError):
            ThresholdPolicy(capacity_low=0.9, capacity_high=0.5)
        with pytest.raises(ConfigError):
            ThresholdPolicy(step=0)


class TestCostAwarePolicy:
    def test_quiet_when_balanced(self, loaded_db):
        policy = CostAwarePolicy(balance_bar=10.0)
        assert policy.decide(observe(loaded_db), WhatIfPlanner(loaded_db)).action == ACTION_NONE

    def test_capacity_trigger_picks_cheapest_clearing_plan(self, loaded_db):
        observation = observe(loaded_db)
        tight = int(observation.max_node_bytes / 0.9)
        policy = CostAwarePolicy(balance_bar=3.0, node_capacity_bytes=tight)
        decision = policy.decide(observation, WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_ADD
        assert decision.projection is not None
        assert decision.projection.feasible
        # The chosen plan actually clears the bar it advertises.
        assert decision.projection.projected_balance_ratio <= 3.0

    def test_skew_trigger_declines_when_nothing_clears(self, loaded_db):
        observation = observe(loaded_db)
        # Bar below every achievable balance: trigger fires, nothing clears,
        # and a pure skew trigger must not act.
        policy = CostAwarePolicy(balance_bar=1.0 + 1e-9, max_nodes=observation.num_nodes)
        decision = policy.decide(observation, WhatIfPlanner(loaded_db))
        assert decision.action in (ACTION_NONE, ACTION_RETARGET)
        if decision.action == ACTION_RETARGET:
            # Only allowed when the plan genuinely clears the bar.
            assert decision.projection.projected_balance_ratio <= 1.0 + 1e-9

    def test_underutilization_scales_in_when_plan_clears(self, loaded_db):
        observation = observe(loaded_db)
        policy = CostAwarePolicy(
            balance_bar=3.0, node_capacity_bytes=observation.total_bytes * 100
        )
        decision = policy.decide(observation, WhatIfPlanner(loaded_db))
        assert decision.action == ACTION_REMOVE
        assert decision.target_nodes == observation.num_nodes - 1

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            CostAwarePolicy(balance_bar=0.9)
        with pytest.raises(ConfigError):
            CostAwarePolicy(max_step=0)
