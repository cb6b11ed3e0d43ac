"""Tests for the TPC-H workload loader and the query-spec catalogue."""

import pytest

from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.cluster.controller import SimulatedCluster
from repro.rebalance import DynaHashStrategy
from repro.tpch import (
    LINEITEM_INDEX,
    ORDERS_INDEX,
    QUERY_NAMES,
    SCAN_HEAVY_QUERIES,
    TPCH_QUERIES,
    TPCHWorkload,
    paper_scale_factor,
    query_spec,
)
from repro.query.executor import ACCESS_SECONDARY_INDEX


def small_cluster():
    return SimulatedCluster(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            lsm=LSMConfig(memory_component_bytes=32 * 1024),
            bucketing=BucketingConfig(initial_buckets_per_partition=1),
        ),
        strategy=DynaHashStrategy(),
    )


class TestQueryCatalogue:
    def test_all_22_queries_defined(self):
        assert QUERY_NAMES == [f"q{i}" for i in range(1, 23)]
        assert set(TPCH_QUERIES) == set(QUERY_NAMES)

    def test_every_query_has_description_and_accesses(self):
        for name, spec in TPCH_QUERIES.items():
            assert spec.description, name
            assert spec.accesses, name

    def test_scan_heavy_queries_are_scan_dominated(self):
        # The queries the paper calls out as scan-heavy have shallow operator
        # pipelines compared to the join-heavy ones.
        for name in SCAN_HEAVY_QUERIES:
            assert query_spec(name).operator_depth <= 5
        assert query_spec("q9").operator_depth > query_spec("q17").operator_depth

    def test_q18_requires_primary_key_order(self):
        assert query_spec("q18").requires_primary_key_order
        assert not query_spec("q1").requires_primary_key_order

    def test_index_only_queries_use_paper_indexes(self):
        q6_accesses = query_spec("q6").accesses
        assert all(a.access == ACCESS_SECONDARY_INDEX for a in q6_accesses)
        assert q6_accesses[0].index_name == LINEITEM_INDEX.name
        q4_first = query_spec("q4").accesses[0]
        assert q4_first.index_name == ORDERS_INDEX.name

    def test_q21_scans_lineitem_multiple_times(self):
        lineitem_access = query_spec("q21").accesses[0]
        assert lineitem_access.dataset == "lineitem"
        assert lineitem_access.scan_count >= 2


class TestWorkloadLoader:
    def test_paper_scale_factor_proportional_to_nodes(self):
        assert paper_scale_factor(4) == pytest.approx(2 * paper_scale_factor(2))
        with pytest.raises(ValueError):
            paper_scale_factor(0)

    def test_load_creates_datasets_and_ingests(self):
        cluster = small_cluster()
        workload = TPCHWorkload(scale_factor=0.0002)
        result = workload.load(cluster, tables=("orders", "lineitem"))
        assert set(result.reports) == {"orders", "lineitem"}
        assert cluster.record_count("orders") == result.row_counts["orders"]
        assert cluster.record_count("lineitem") == result.row_counts["lineitem"]
        assert result.total_rows == sum(result.row_counts.values())
        assert result.total_simulated_seconds > 0

    def test_lineitem_foreign_keys_consistent_without_orders(self):
        cluster = small_cluster()
        workload = TPCHWorkload(scale_factor=0.0002)
        result = workload.load(cluster, tables=("lineitem",))
        assert result.row_counts["lineitem"] > 0

    def test_secondary_indexes_created_per_paper(self):
        cluster = small_cluster()
        TPCHWorkload(scale_factor=0.0001).load(cluster, tables=("orders", "lineitem"))
        lineitem_partition = next(iter(cluster.dataset("lineitem").partitions.values()))
        orders_partition = next(iter(cluster.dataset("orders").partitions.values()))
        assert LINEITEM_INDEX.name in lineitem_partition.secondary_indexes
        assert ORDERS_INDEX.name in orders_partition.secondary_indexes

    def test_concurrent_lineitem_rows_use_fresh_order_keys(self):
        workload = TPCHWorkload(scale_factor=0.0002)
        rows = workload.concurrent_lineitem_rows(50)
        assert len(rows) == 50
        assert all(row["l_orderkey"] >= 50_000_000 for row in rows)
        keys = {(row["l_orderkey"], row["l_linenumber"]) for row in rows}
        assert len(keys) == 50

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_concurrent_lineitem_rows_returns_exactly_count_rows(self, count):
        assert len(TPCHWorkload(scale_factor=0.0002).concurrent_lineitem_rows(count)) == count
