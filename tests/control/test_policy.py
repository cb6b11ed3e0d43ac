"""Policy unit tests: registry, decisions, and the built-in policy."""

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.common.errors import ConfigError
from repro.control import (
    ACTION_ADD,
    ACTION_NONE,
    ACTION_REMOVE,
    AutopilotPolicy,
    ClusterObservation,
    CostAwarePolicy,
    PolicyDecision,
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
        assert "cost_aware" in names
        assert "threshold" not in names and "scheduled" not in names

    def test_aliases_resolve(self):
        assert isinstance(policy_by_name("cost"), CostAwarePolicy)

    def test_factory_kwargs_forwarded(self):
        policy = policy_by_name("cost_aware", balance_bar=2.0)
        assert policy.balance_bar == 2.0

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
            resolve_policy(CostAwarePolicy(), balance_bar=2.0)


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

    def test_capacity_respects_max_nodes(self, loaded_db):
        observation = observe(loaded_db)
        tight = int(observation.max_node_bytes / 0.9)  # peak utilization ~0.9
        policy = CostAwarePolicy(
            balance_bar=3.0, node_capacity_bytes=tight, max_nodes=observation.num_nodes
        )
        assert policy.decide(observation, WhatIfPlanner(loaded_db)).action == ACTION_NONE

    def test_skew_trigger_declines_when_nothing_clears(self, loaded_db):
        """Bar below every achievable balance and no room to grow: this
        layout's Algorithm 2 pass moves nothing at the current size, so the
        skew trigger stays quiet instead of looping no-op rebalances."""
        observation = observe(loaded_db)
        planner = WhatIfPlanner(loaded_db)
        assert planner.project(observation.num_nodes).buckets_moved == 0
        policy = CostAwarePolicy(balance_bar=1.0 + 1e-9, max_nodes=observation.num_nodes)
        assert policy.decide(observation, planner).action == ACTION_NONE

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

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="node_capacity_bytes"):
            CostAwarePolicy(node_capacity_bytes=0)

    def test_min_nodes_must_be_at_least_one(self):
        with pytest.raises(ConfigError, match="min_nodes"):
            CostAwarePolicy(min_nodes=0, max_nodes=0)

    def test_max_nodes_must_not_undercut_min_nodes(self):
        with pytest.raises(ConfigError, match="max_nodes"):
            CostAwarePolicy(min_nodes=3, max_nodes=2)
