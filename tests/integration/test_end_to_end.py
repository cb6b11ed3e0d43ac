"""End-to-end integration tests across the whole stack.

These exercise the full pipeline the way the examples and benchmarks do:
load TPC-H, query it, rebalance repeatedly (in and out, with concurrent
writes and injected failures), and keep checking that every record stays
readable and every query answer stays identical.
"""

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig, load_tpch
from repro.common.errors import FaultInjected
from repro.query import ClusterQueryExecutor
from repro.rebalance import (
    FaultInjector,
    RebalanceOperation,
    RebalanceRecoveryManager,
)
from repro.tpch import DEFAULT_TABLES, TPCHWorkload, q1_plan, q6_plan

#: TPC-H scale factor loaded per node (the paper's figure specs use the same).
SCALE_PER_NODE = 0.0002


def loaded_database(num_nodes, tables=("orders", "lineitem")):
    """A DynaHash session at the figure specs' cluster settings, TPC-H loaded."""
    db = Database(
        ClusterConfig(
            num_nodes=num_nodes,
            partitions_per_node=2,
            lsm=LSMConfig(memory_component_bytes=32 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        ),
        strategy="dynahash",
        workload_scale=100.0 / SCALE_PER_NODE,
    )
    load = load_tpch(db, scale_factor=SCALE_PER_NODE * num_nodes, tables=tables)
    workload = TPCHWorkload(scale_factor=load.scale_factor, seed=db.config.seed)
    return db, workload, load


@pytest.fixture(scope="module")
def dynahash_database():
    return loaded_database(4, tables=DEFAULT_TABLES)


class TestLoadAndQuery:
    def test_load_populates_every_table(self, dynahash_database):
        db, _workload, load = dynahash_database
        for table, count in load.row_counts.items():
            assert db[table].count() == count

    def test_dynahash_split_buckets_while_loading(self, dynahash_database):
        db, _workload, _load = dynahash_database
        lineitem = db.cluster.dataset("lineitem")
        bucket_counts = [p.primary.bucket_count for p in lineitem.partitions.values()]
        assert max(bucket_counts) > 1  # the 10GB-style cap split buckets

    def test_q1_and_q6_answers_match_generator_ground_truth(self, dynahash_database):
        db, workload, _load = dynahash_database
        executor = ClusterQueryExecutor(db.cluster)
        q6, _ = executor.execute_plan("q6", q6_plan())
        expected = 0.0
        orders = list(workload.generator.orders())
        for row in workload.generator.lineitem(orders_rows=orders):
            if (
                "1994-01-01" <= row["l_shipdate"] < "1995-01-01"
                and 0.05 <= row["l_discount"] <= 0.07
                and row["l_quantity"] < 24
            ):
                expected += row["l_extendedprice"] * row["l_discount"]
        assert q6["revenue"] == pytest.approx(expected, rel=1e-9)
        q1, _ = executor.execute_plan("q1", q1_plan())
        assert sum(group["count_order"] for group in q1) <= db["lineitem"].count()


class TestRepeatedRebalancing:
    def test_scale_in_out_cycle_preserves_answers(self):
        db, _workload, _load = loaded_database(4, tables=DEFAULT_TABLES)
        cluster = db.cluster
        executor = ClusterQueryExecutor(cluster)
        baseline, _ = executor.execute_plan("q6", q6_plan())
        record_counts = {dataset.name: dataset.count() for dataset in db.datasets()}
        for target in (3, 2, 3, 4):
            report = db.rebalance(target)
            assert report.committed
            assert cluster.num_nodes == target
            for name, count in record_counts.items():
                assert db[name].count() == count
        final, _ = ClusterQueryExecutor(cluster).execute_plan("q6", q6_plan())
        assert final["revenue"] == pytest.approx(baseline["revenue"], rel=1e-9)

    def test_concurrent_writes_survive_scale_in(self):
        db, workload, _load = loaded_database(3)
        lineitem = db["lineitem"]
        before = lineitem.count()
        concurrent = workload.concurrent_lineitem_rows(150)
        report = db.rebalance(2, concurrent_rows={"lineitem": concurrent})
        assert report.committed
        assert lineitem.count() == before + len(concurrent)
        for row in concurrent[::13]:
            key = (row["l_orderkey"], row["l_linenumber"])
            assert lineitem.get(key) is not None

    def test_crash_then_recover_then_rebalance_again(self):
        db, _workload, _load = loaded_database(3)
        cluster = db.cluster
        lineitem = db["lineitem"]
        records = lineitem.count()
        targets = [pid for node in cluster.nodes[:2] for pid in node.partition_ids]
        operation = RebalanceOperation(
            cluster,
            "lineitem",
            targets,
            fault_injector=FaultInjector(["cc_fail_before_commit"]),
        )
        with pytest.raises(FaultInjected):
            operation.run()
        RebalanceRecoveryManager(cluster).recover()
        assert lineitem.count() == records
        # The aborted attempt leaves the cluster fully able to rebalance again.
        report = db.rebalance(2)
        assert report.committed
        assert lineitem.count() == records
