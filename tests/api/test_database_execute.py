"""Queries through the session: ``Database.execute(name, plan)`` runs a real
operator plan over the cluster and returns its rows with the simulated-time
report; ``Database.execute_spec(spec)`` prices an access-pattern spec (what
the paper's Figure 8/9 specs run)."""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    Database,
    KIB,
    LSMConfig,
    QuerySpec,
    SecondaryIndexSpec,
    TableAccess,
)
from repro.common.errors import UnknownColumnError
from repro.query.executor import ACCESS_PRIMARY_KEY_LOOKUPS, ACCESS_SECONDARY_INDEX
from repro.query.operators import (
    filter_rows,
    hash_group_by,
    limit,
    order_by,
    project,
    scalar_aggregate,
)


def order_rows(count):
    return [
        {
            "o_orderkey": key,
            "o_custkey": key % 10,
            "o_orderdate": f"199{5 + key % 3}-{(key % 12) + 1:02d}-01",
            "o_totalprice": float(key),
        }
        for key in range(count)
    ]


@pytest.fixture
def db():
    config = ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
    )
    with Database(config, strategy="dynahash") as database:
        orders = database.create_dataset(
            "orders",
            primary_key="o_orderkey",
            secondary_indexes=[
                SecondaryIndexSpec("idx_date", ("o_orderdate",), included_fields=("o_custkey",))
            ],
        )
        orders.insert(order_rows(1000))
        yield database


def per_customer(context, rows=None):
    """Orders and revenue per customer, in customer order."""
    groups = hash_group_by(
        context.scan("orders") if rows is None else rows,
        key=lambda row: {"o_custkey": row["o_custkey"]},
        aggregates={"n": ("count", None), "total": ("sum", lambda row: row.get("o_totalprice", 0))},
        stats=context.operator_stats,
    )
    return order_by(groups, key=lambda row: row["o_custkey"], stats=context.operator_stats)


class TestExecutePlans:
    def test_filter_matches_manual_evaluation(self, db):
        rows, report = db.execute(
            "expensive",
            lambda context: filter_rows(
                context.scan("orders"), lambda row: row["o_totalprice"] >= 990.0
            ),
        )
        assert sorted(row["o_orderkey"] for row in rows) == list(range(990, 1000))
        assert report.records_scanned == 1000
        assert report.rows_returned == 10

    def test_group_by_aggregate_matches_manual(self, db):
        rows, report = db.execute("per_customer", per_customer)
        assert report.rows_returned == len(rows) == 10
        # Each customer owns keys c, c+10, ..., c+990: 100 orders each.
        for row in rows:
            expected = sum(float(k) for k in range(row["o_custkey"], 1000, 10))
            assert row["n"] == 100
            assert row["total"] == pytest.approx(expected)

    def test_order_by_and_limit(self, db):
        rows, _ = db.execute(
            "top3",
            lambda context: limit(
                order_by(context.scan("orders"), lambda row: row["o_totalprice"], descending=True),
                3,
            ),
        )
        assert [row["o_orderkey"] for row in rows] == [999, 998, 997]

    def test_project_with_computed_columns(self, db):
        rows, _ = db.execute(
            "doubled",
            lambda context: order_by(
                project(
                    filter_rows(context.scan("orders"), lambda row: row["o_orderkey"] < 5),
                    ("o_orderkey",),
                    {"double": lambda row: row["o_totalprice"] * 2},
                ),
                lambda row: row["o_orderkey"],
            ),
        )
        assert rows[2] == {"o_orderkey": 2, "double": 4.0}

    def test_scalar_aggregate_is_one_row(self, db):
        row, report = db.execute(
            "revenue",
            lambda context: scalar_aggregate(
                context.scan("orders"), {"revenue": ("sum", lambda row: row["o_totalprice"])}
            ),
        )
        assert row == {"revenue": pytest.approx(sum(range(1000)))}
        assert report.rows_returned == 1

    def test_filtered_count(self, db):
        row, _ = db.execute(
            "count",
            lambda context: scalar_aggregate(
                filter_rows(context.scan("orders"), lambda row: row["o_custkey"] == 3),
                {"n": ("count", None)},
            ),
        )
        assert row == {"n": 100}

    def test_secondary_index_scan_reads_covered_fields(self, db):
        rows, report = db.execute(
            "by_index", lambda context: per_customer(context, context.scan_index("orders", "idx_date"))
        )
        assert sum(row["n"] for row in rows) == 1000
        assert all(row["total"] == 0 for row in rows)  # the price is not covered
        assert report.records_scanned == 1000

    def test_unknown_column_raises_library_error(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("missing", lambda context: project(context.scan("orders"), ("missing",)))

    def test_results_identical_across_rebalance(self, db):
        before, _ = db.execute("per_customer", per_customer)
        db.rebalance(remove=1)
        after, _ = db.execute("per_customer", per_customer)
        assert before == after


class TestExecuteSpec:
    def test_key_lookups_are_priced(self, db):
        spec = QuerySpec("lookups", (TableAccess("orders", ACCESS_PRIMARY_KEY_LOOKUPS, lookups=64),))
        assert db.execute_spec(spec).simulated_seconds > 0

    def test_selectivity_scales_rows_returned(self, db):
        def rows_returned(selectivity):
            spec = QuerySpec("scan", (TableAccess("orders", selectivity=selectivity),))
            return db.execute_spec(spec).rows_returned

        assert rows_returned(0.25) < rows_returned(1.0)

    def test_index_access_is_priced(self, db):
        spec = QuerySpec(
            "by_index",
            (TableAccess("orders", ACCESS_SECONDARY_INDEX, index_name="idx_date"),),
        )
        assert db.execute_spec(spec).simulated_seconds > 0

    def test_unknown_index_raises(self, db):
        spec = QuerySpec(
            "by_index", (TableAccess("orders", ACCESS_SECONDARY_INDEX, index_name="nope"),)
        )
        with pytest.raises(Exception, match="nope"):
            db.execute_spec(spec)
