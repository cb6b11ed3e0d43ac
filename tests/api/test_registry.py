"""Strategy registry: name resolution, aliases, errors, custom registration."""

import pytest

from repro.api import (
    ConfigError,
    available_strategies,
    register_strategy,
    resolve_strategy,
    strategy_by_name,
)
from repro.rebalance import (
    ConsistentHashStrategy,
    DynaHashStrategy,
    GlobalHashingStrategy,
    RebalancingStrategy,
    StaticHashStrategy,
)


class TestStrategyByName:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("dynahash", DynaHashStrategy),
            ("DynaHash", DynaHashStrategy),
            ("dyna", DynaHashStrategy),
            ("statichash", StaticHashStrategy),
            ("static", StaticHashStrategy),
            ("hashing", GlobalHashingStrategy),
            ("global", GlobalHashingStrategy),
            ("globalhashing", GlobalHashingStrategy),
            ("consistent", ConsistentHashStrategy),
            ("consistenthash", ConsistentHashStrategy),
        ],
    )
    def test_known_names_and_aliases(self, name, expected):
        assert isinstance(strategy_by_name(name), expected)

    def test_factory_kwargs_forwarded(self):
        strategy = strategy_by_name("static", total_buckets=33)
        assert strategy.total_buckets == 33

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as excinfo:
            strategy_by_name("raft")  # reprolint: allow[reg-unknown-strategy] -- asserts the unknown-name error path
        message = str(excinfo.value)
        assert "raft" in message
        for choice in ("consistenthash", "dynahash", "hashing", "statichash"):
            assert choice in message

    def test_available_strategies_sorted(self):
        names = available_strategies()
        assert names == sorted(names)
        assert {"dynahash", "statichash", "hashing", "consistenthash"} <= set(names)

    def test_exported_from_repro_top_level(self):
        import repro

        assert repro.strategy_by_name is strategy_by_name
        assert isinstance(repro.strategy_by_name("dynahash"), DynaHashStrategy)


class TestResolveStrategy:
    def test_none_passes_through(self):
        assert resolve_strategy(None) is None

    def test_name_resolves(self):
        assert isinstance(resolve_strategy("dynahash"), DynaHashStrategy)

    def test_instance_passes_through(self):
        strategy = StaticHashStrategy()
        assert resolve_strategy(strategy) is strategy

    def test_options_without_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_strategy(None, max_bucket_bytes=1)
        with pytest.raises(ConfigError):
            resolve_strategy(StaticHashStrategy(), total_buckets=3)

    def test_non_strategy_object_rejected(self):
        with pytest.raises(ConfigError):
            resolve_strategy(object())

    def test_run_to_completion_only_strategies_rejected_up_front(self):
        """The cluster only ever calls the ``rebalance_cluster_steps`` generator
        (drained for run-to-completion), so a strategy that supplies just a
        legacy ``rebalance_cluster`` must fail at resolution, naming the hook —
        not with an AttributeError mid-run, and not by being silently bypassed."""

        class DuckTyped:
            def rebalance_cluster(self, cluster, target_nodes, **kwargs):
                raise AssertionError("never called")

        class LegacyOverride(DynaHashStrategy):
            def rebalance_cluster(self, cluster, target_nodes, **kwargs):
                raise AssertionError("never called")

        for strategy in (DuckTyped(), LegacyOverride()):
            with pytest.raises(ConfigError, match="rebalance_cluster_steps"):
                resolve_strategy(strategy)

    def test_generator_overrides_accepted(self):
        class StepsOnly(DynaHashStrategy):
            def rebalance_cluster_steps(self, cluster, target_nodes, **kwargs):
                return (yield from super().rebalance_cluster_steps(cluster, target_nodes, **kwargs))

        class Both(DynaHashStrategy):
            def rebalance_cluster_steps(self, cluster, target_nodes, **kwargs):
                return (yield from super().rebalance_cluster_steps(cluster, target_nodes, **kwargs))

            def rebalance_cluster(self, cluster, target_nodes, **kwargs):
                raise AssertionError("never called")

        for strategy in (StepsOnly(), Both(), GlobalHashingStrategy()):
            assert resolve_strategy(strategy) is strategy


class TestCustomRegistration:
    def test_register_and_resolve_custom_strategy(self):
        class NoopStrategy(RebalancingStrategy):
            name = "Noop"

        register_strategy("noop-test", NoopStrategy, aliases=("noop",))
        try:
            assert isinstance(strategy_by_name("noop"), NoopStrategy)
            assert "noop-test" in available_strategies()
        finally:
            from repro.rebalance.strategies import _STRATEGY_ALIASES, _STRATEGY_FACTORIES

            _STRATEGY_FACTORIES.pop("noop-test", None)
            _STRATEGY_ALIASES.pop("noop-test", None)
            _STRATEGY_ALIASES.pop("noop", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            register_strategy("", RebalancingStrategy)
