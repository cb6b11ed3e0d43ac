"""Tests for cluster-parallel query execution (spec mode and plan mode)."""

import pytest

from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import QueryError
from repro.cluster.controller import SimulatedCluster
from repro.query.executor import (
    ACCESS_FULL_SCAN,
    ACCESS_SECONDARY_INDEX,
    ClusterQueryExecutor,
    QuerySpec,
    TableAccess,
)
from repro.rebalance.strategies import DynaHashStrategy, StaticHashStrategy
from repro.sim import drain
from repro.tpch.queries import q1_plan, q3_plan, q6_plan, query_spec
from repro.tpch.workload import TPCHWorkload


def small_config(num_nodes=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=64 * 1024),
        bucketing=BucketingConfig(initial_buckets_per_partition=2),
    )


def loaded_cluster(num_nodes=2, scale=0.0004, strategy=None):
    cluster = SimulatedCluster(small_config(num_nodes), strategy=strategy or DynaHashStrategy(initial_buckets_per_partition=2))
    workload = TPCHWorkload(scale_factor=scale)
    workload.load(cluster, tables=("customer", "orders", "lineitem", "part", "supplier", "nation", "region", "partsupp"))
    return cluster, workload


@pytest.fixture(scope="module")
def tpch_cluster():
    return loaded_cluster()


class TestSpecValidation:
    def test_unknown_access_rejected(self):
        with pytest.raises(QueryError):
            TableAccess("lineitem", "table_scan")

    def test_secondary_access_requires_index(self):
        with pytest.raises(QueryError):
            TableAccess("lineitem", ACCESS_SECONDARY_INDEX)

    def test_selectivity_bounds(self):
        with pytest.raises(QueryError):
            TableAccess("lineitem", ACCESS_FULL_SCAN, selectivity=1.5)

    def test_spec_requires_accesses(self):
        with pytest.raises(QueryError):
            QuerySpec("empty", [])

    def test_spec_requires_positive_depth(self):
        with pytest.raises(QueryError):
            QuerySpec("bad", [TableAccess("lineitem")], operator_depth=0)


class TestSpecExecution:
    def test_full_scan_spec(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        report = executor.execute_spec(query_spec("q1"))
        assert report.simulated_seconds > 0
        assert report.records_scanned == cluster.dataset("lineitem").record_count()
        assert set(report.per_node_seconds) == {"nc0", "nc1"}

    def test_index_only_query_reads_less(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        q1 = executor.execute_spec(query_spec("q1"))
        q6 = executor.execute_spec(query_spec("q6"))
        assert q6.bytes_scanned < q1.bytes_scanned
        assert q6.simulated_seconds < q1.simulated_seconds

    def test_multiple_scans_cost_more(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        single = executor.execute_spec(
            QuerySpec("one-pass", [TableAccess("lineitem", scan_count=1)], operator_depth=2)
        )
        triple = executor.execute_spec(
            QuerySpec("three-pass", [TableAccess("lineitem", scan_count=3)], operator_depth=2)
        )
        # Compare the parallel (per-node) portion: the fixed coordinator RPC
        # latency is the same for both and can dominate at tiny data scale.
        assert max(triple.per_node_seconds.values()) > 2 * max(single.per_node_seconds.values())

    def test_ordered_scan_costs_more_with_more_buckets(self):
        few_cluster, _ = loaded_cluster(strategy=DynaHashStrategy(initial_buckets_per_partition=1))
        many_cluster, _ = loaded_cluster(strategy=StaticHashStrategy(total_buckets=64))
        spec = query_spec("q18")
        few_time = ClusterQueryExecutor(few_cluster).execute_spec(spec).simulated_seconds
        many_time = ClusterQueryExecutor(many_cluster).execute_spec(spec).simulated_seconds
        few_buckets = next(iter(few_cluster.dataset("lineitem").partitions.values())).primary.bucket_count
        many_buckets = next(iter(many_cluster.dataset("lineitem").partitions.values())).primary.bucket_count
        assert many_buckets > few_buckets
        assert many_time > few_time

    def test_all_22_specs_run(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        for number in range(1, 23):
            report = executor.execute_spec(query_spec(f"q{number}"))
            assert report.simulated_seconds > 0, f"q{number} produced no time"

    def test_unknown_query_name(self):
        with pytest.raises(KeyError):
            query_spec("q23")


class TestPlanExecution:
    def test_q1_plan_produces_groups(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        result, report = executor.execute_plan("q1", q1_plan())
        assert 1 <= len(result) <= 6  # at most 3 returnflags x 2 linestatus
        assert all("sum_qty" in row and row["count_order"] > 0 for row in result)
        assert report.simulated_seconds > 0
        assert report.records_scanned == cluster.dataset("lineitem").record_count()

    def test_q6_plan_matches_manual_aggregation(self, tpch_cluster):
        cluster, workload = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        result, _report = executor.execute_plan("q6", q6_plan())
        expected = 0.0
        for row in workload.generator.lineitem():
            if (
                "1994-01-01" <= row["l_shipdate"] < "1995-01-01"
                and 0.05 <= row["l_discount"] <= 0.07
                and row["l_quantity"] < 24
            ):
                expected += row["l_extendedprice"] * row["l_discount"]
        assert result["revenue"] == pytest.approx(expected, rel=1e-9)

    def test_q3_plan_returns_top_10(self, tpch_cluster):
        cluster, _ = tpch_cluster
        executor = ClusterQueryExecutor(cluster)
        result, report = executor.execute_plan("q3", q3_plan())
        assert len(result) <= 10
        revenues = [row["revenue"] for row in result]
        assert revenues == sorted(revenues, reverse=True)
        assert report.bytes_scanned > 0

    def test_plan_results_survive_rebalance(self):
        cluster, _ = loaded_cluster(num_nodes=3, scale=0.0003)
        executor = ClusterQueryExecutor(cluster)
        before, _ = executor.execute_plan("q6", q6_plan())
        drain(cluster.rebalance_to_steps(2))
        after, _ = executor.execute_plan("q6", q6_plan())
        assert after["revenue"] == pytest.approx(before["revenue"], rel=1e-9)
