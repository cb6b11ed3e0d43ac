"""Integration tests for the benchmark harness (tiny scale)."""

from dataclasses import replace

import pytest

from repro.bench import (
    SMOKE,
    BenchScale,
    make_strategy,
    run_concurrent_write_experiment,
    run_ingestion_experiment,
    run_query_experiment,
    run_scaling_experiment,
)
from repro.bench.reporting import format_table, per_query_table, series_table
from repro.rebalance import DynaHashStrategy, GlobalHashingStrategy, StaticHashStrategy


@pytest.fixture(scope="module")
def tiny_scale():
    """A very small scale so the whole harness runs in a few seconds."""
    return replace(
        SMOKE,
        node_counts=(2, 3),
        scale_per_node=0.0001,
        write_rates_krecords=(0, 5),
        static_total_buckets=32,
    )


class TestScalePreset:
    def test_workload_scale_bridges_to_paper_scale(self):
        scale = BenchScale(scale_per_node=0.0002)
        assert scale.workload_scale == pytest.approx(100.0 / 0.0002)

    def test_cluster_config_matches_preset(self):
        scale = SMOKE
        config = scale.cluster_config(4)
        assert config.num_nodes == 4
        assert config.partitions_per_node == scale.partitions_per_node
        assert config.bucketing.max_bucket_bytes == scale.max_bucket_bytes

    def test_scale_factor_grows_with_nodes(self):
        scale = SMOKE
        assert scale.scale_factor(8) == pytest.approx(scale.scale_factor(2) * 4)

    def test_make_strategy(self):
        assert isinstance(make_strategy("Hashing", SMOKE), GlobalHashingStrategy)
        assert isinstance(make_strategy("StaticHash", SMOKE), StaticHashStrategy)
        assert isinstance(make_strategy("DynaHash", SMOKE), DynaHashStrategy)
        with pytest.raises(ValueError):
            make_strategy("other", SMOKE)


class TestExperimentDrivers:
    def test_ingestion_experiment_shape(self, tiny_scale):
        result = run_ingestion_experiment(tiny_scale, strategies=("Hashing", "DynaHash"))
        assert set(result.minutes) == {"Hashing", "DynaHash"}
        for by_nodes in result.minutes.values():
            assert set(by_nodes) == set(tiny_scale.node_counts)
            assert all(value > 0 for value in by_nodes.values())

    def test_scaling_experiment_bucketed_cheaper(self, tiny_scale):
        result = run_scaling_experiment(tiny_scale, strategies=("Hashing", "DynaHash"))
        for nodes in tiny_scale.node_counts:
            assert result.remove_minutes["DynaHash"][nodes] < result.remove_minutes["Hashing"][nodes]
            assert result.add_minutes["DynaHash"][nodes] < result.add_minutes["Hashing"][nodes]

    def test_concurrent_write_experiment_monotone(self, tiny_scale):
        result = run_concurrent_write_experiment(tiny_scale, num_nodes=3)
        rates = sorted(result.minutes_by_rate)
        assert result.minutes_by_rate[rates[-1]] >= result.minutes_by_rate[rates[0]]

    def test_query_experiment_runs_selected_queries(self, tiny_scale):
        result = run_query_experiment(
            tiny_scale,
            num_nodes=2,
            downsize=False,
            approaches=("Hashing", "DynaHash"),
            queries=("q1", "q6", "q18"),
        )
        assert set(result.seconds) == {"Hashing", "DynaHash"}
        assert set(result.seconds["DynaHash"]) == {"q1", "q6", "q18"}
        assert result.seconds["DynaHash"]["q18"] >= result.seconds["Hashing"]["q18"]


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2.5], ["xx", "y"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.50" in table

    def test_series_table(self):
        table = series_table({"s1": {2: 1.0, 4: 2.0}, "s2": {2: 3.0}}, "nodes", "min")
        assert "s1 (min)" in table and "s2 (min)" in table
        assert "-" in table  # missing point rendered as a dash

    def test_per_query_table_orders_numerically(self):
        table = per_query_table({"A": {"q2": 1.0, "q10": 2.0}})
        q2_index = table.index("q2 ")
        q10_index = table.index("q10")
        assert q2_index < q10_index
