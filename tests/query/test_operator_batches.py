"""The batch operators and the list-building scan against their row-at-a-time
predecessors.

The per-row generator operators and the lazy per-partition scan below are the
ones the batch versions replaced, kept verbatim as oracles: every operator
must return the same rows in the same order and leave the same
``OperatorStats`` counts, and a TPC-H plan the same answer and the same
``QueryReport``, bit for bit, before and after a rebalance.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.executor as executor_module
import repro.query.operators as operators_module
import repro.tpch.queries as queries_module
from repro.api import ClusterConfig, Database
from repro.bucketed.scan import estimate_merge_comparisons
from repro.cluster.partition import StoragePartition
from repro.common.errors import QueryError, UnknownColumnError
from repro.query.executor import (
    ACCESS_PRIMARY_KEY_LOOKUPS,
    ClusterQueryExecutor,
    QueryContext,
    QuerySpec,
    TableAccess,
)
from repro.query.operators import (
    OperatorStats,
    filter_rows,
    hash_group_by,
    hash_join,
    limit,
    project,
    scalar_aggregate,
)
from repro.sim import drain
from repro.tpch.queries import q1_plan, q3_plan, q6_plan
from repro.tpch.schema import LINEITEM_INDEX

from .test_executor import loaded_cluster

# --------------------------------------------------------------- the oracles


def row_filter(rows, predicate, stats=None, name="filter"):
    for row in rows:
        if stats is not None:
            stats.bump(name)
        if predicate(row):
            yield row


def row_project(rows, columns=(), computed=None, stats=None, name="project"):
    computed = computed or {}
    for row in rows:
        if stats is not None:
            stats.bump(name)
        out = {column: operators_module._get(row, column) for column in columns}
        for column, fn in computed.items():
            out[column] = fn(row)
        yield out


def row_hash_join(left, right, left_key, right_key, stats=None, name="hash_join", how="inner"):
    if how not in ("inner", "left_semi", "left_anti"):
        raise QueryError(f"unsupported join type {how!r}")
    build = {}
    for row in right:
        if stats is not None:
            stats.bump(f"{name}:build")
        build.setdefault(right_key(row), []).append(row)
    for row in left:
        if stats is not None:
            stats.bump(f"{name}:probe")
        matches = build.get(left_key(row), [])
        if how == "inner":
            for match in matches:
                merged = dict(match)
                merged.update(row)
                yield merged
        elif how == "left_semi":
            if matches:
                yield row
        else:  # left_anti
            if not matches:
                yield row


def row_hash_group_by(rows, key, aggregates, stats=None, name="group_by"):
    valid = {"sum", "count", "min", "max", "avg"}
    for column, (kind, _fn) in aggregates.items():
        if kind not in valid:
            raise QueryError(f"unsupported aggregate {kind!r} for column {column!r}")
    groups = {}
    counts = {}
    group_keys = {}
    for row in rows:
        if stats is not None:
            stats.bump(name)
        group_value = key(row)
        group = (
            tuple(sorted(group_value.items())) if isinstance(group_value, dict) else group_value
        )
        group_keys[group] = group_value
        state = groups.setdefault(group, {})
        count_state = counts.setdefault(group, {})
        for column, (kind, fn) in aggregates.items():
            value = fn(row) if kind != "count" else 1
            if kind == "count":
                state[column] = state.get(column, 0) + 1
            elif kind == "sum":
                state[column] = state.get(column, 0) + value
            elif kind == "min":
                state[column] = value if column not in state else min(state[column], value)
            elif kind == "max":
                state[column] = value if column not in state else max(state[column], value)
            elif kind == "avg":
                state[column] = state.get(column, 0) + value
                count_state[column] = count_state.get(column, 0) + 1
    for group, state in groups.items():
        out = {}
        group_value = group_keys[group]
        if isinstance(group_value, dict):
            out.update(group_value)
        else:
            out["group_key"] = group_value
        for column, (kind, _fn) in aggregates.items():
            if kind == "avg":
                denominator = counts[group].get(column, 0)
                out[column] = state[column] / denominator if denominator else None
            else:
                out[column] = state.get(column, 0)
        yield out


def row_scalar_aggregate(rows, aggregates, stats=None, name="aggregate"):
    result_rows = list(
        row_hash_group_by(rows, key=lambda row: 0, aggregates=aggregates, stats=stats, name=name)
    )
    if not result_rows:
        return {column: (0 if kind in ("count", "sum") else None) for column, (kind, _f) in aggregates.items()}
    row = result_rows[0]
    row.pop("group_key", None)
    return row


class RowScanContext(QueryContext):
    """The lazy scan: rows yielded one at a time, each partition charged only
    when its scan is exhausted."""

    def scan(self, dataset, ordered=False):
        yield from self._row_scan(dataset, None, ordered)

    def scan_index(self, dataset, index_name):
        yield from self._row_scan(dataset, index_name, False)

    def _row_scan(self, dataset, index_name, ordered):
        cluster = self._executor.cluster
        cost = cluster.cost
        runtime = cluster.dataset(dataset)
        spec = runtime.spec
        for pid, partition in sorted(runtime.partitions.items()):
            before = partition.stats_snapshot()
            records = 0
            if index_name is None:
                for entry in partition.scan_primary(ordered=ordered):
                    records += 1
                    yield dict(entry.value)
            else:
                index_spec = spec.index(index_name)
                for entry in partition.scan_secondary(index_name):
                    records += 1
                    row = dict(entry.value) if isinstance(entry.value, dict) else {}
                    for field_name, value in zip(index_spec.key_fields, entry.key[:-1], strict=True):
                        row[field_name] = value
                    row["_pk"] = entry.key[-1]
                    yield row
            delta = partition.stats_snapshot().diff(before)
            seconds = (
                cost.disk_read_time(delta.bytes_read)
                + cost.component_open_time(delta.components_opened)
                + cost.operator_time(records)
            )
            if ordered and index_name is None:
                seconds += cost.compare_time(
                    estimate_merge_comparisons(partition.primary.bucket_count, records)
                )
            self.partition_seconds[pid] = self.partition_seconds.get(pid, 0.0) + seconds
            self.bytes_scanned += delta.bytes_read
            self.records_scanned += records


def install_row_at_a_time(monkeypatch):
    """Swaps the row-at-a-time operators and scan in where the plans find them."""
    monkeypatch.setattr(queries_module, "filter_rows", row_filter)
    monkeypatch.setattr(queries_module, "hash_join", row_hash_join)
    monkeypatch.setattr(queries_module, "hash_group_by", row_hash_group_by)
    monkeypatch.setattr(queries_module, "scalar_aggregate", row_scalar_aggregate)
    monkeypatch.setattr(executor_module, "QueryContext", RowScanContext)


# ------------------------------------------------------- operator properties

ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.integers(0, 3),
            "h": st.sampled_from("xy"),
            "v": st.floats(-1e6, 1e6, allow_nan=False),
            "w": st.integers(-50, 50),
        }
    ),
    max_size=30,
)

GROUP_KEYS = {
    "scalar": lambda row: row["g"],
    "tuple": lambda row: (row["h"], row["g"]),
    "dict": lambda row: {"h": row["h"], "g": row["g"]},
}

AGGREGATES = {
    "n": ("count", lambda row: 1),
    "total": ("sum", lambda row: row["v"]),
    "weighted": ("sum", lambda row: row["v"] * row["w"]),
    "lo": ("min", lambda row: row["w"]),
    "hi": ("max", lambda row: row["v"]),
    "mean": ("avg", lambda row: row["v"]),
}


def same(batch_out, batch_stats, row_out, row_stats):
    """Same rows, same order, same column order, float bits included."""
    assert isinstance(batch_out, list)
    assert repr(batch_out) == repr(list(row_out))
    assert batch_stats.counts == row_stats.counts


def feed(rows, as_iterator):
    return iter(rows) if as_iterator else rows


class TestOperatorsAgainstTheRowOracles:
    @settings(max_examples=150, deadline=None)
    @given(rows=ROWS, threshold=st.integers(-60, 60), as_iterator=st.booleans())
    def test_filter(self, rows, threshold, as_iterator):
        predicate = lambda row: row["w"] >= threshold  # noqa: E731
        batch, oracle = OperatorStats(), OperatorStats()
        same(
            filter_rows(feed(rows, as_iterator), predicate, batch),
            batch,
            row_filter(rows, predicate, oracle),
            oracle,
        )

    @settings(max_examples=150, deadline=None)
    @given(rows=ROWS, as_iterator=st.booleans())
    def test_project(self, rows, as_iterator):
        computed = {"vw": lambda row: row["v"] * row["w"]}
        batch, oracle = OperatorStats(), OperatorStats()
        same(
            project(feed(rows, as_iterator), ["h", "v"], computed, batch, "p"),
            batch,
            row_project(rows, ["h", "v"], computed, oracle, "p"),
            oracle,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        left=ROWS,
        right=ROWS,
        how=st.sampled_from(["inner", "left_semi", "left_anti"]),
        as_iterator=st.booleans(),
    )
    def test_hash_join(self, left, right, how, as_iterator):
        key = operator.itemgetter("g")
        right = [{"g": row["g"], "r": row["w"]} for row in right]
        batch, oracle = OperatorStats(), OperatorStats()
        same(
            hash_join(feed(left, as_iterator), feed(right, as_iterator), key, key, batch, how=how),
            batch,
            row_hash_join(left, right, key, key, oracle, how=how),
            oracle,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        rows=ROWS,
        key=st.sampled_from(sorted(GROUP_KEYS)),
        columns=st.lists(st.sampled_from(sorted(AGGREGATES)), min_size=1, max_size=6, unique=True),
        as_iterator=st.booleans(),
    )
    def test_hash_group_by_and_scalar_aggregate(self, rows, key, columns, as_iterator):
        aggregates = {column: AGGREGATES[column] for column in columns}
        batch, oracle = OperatorStats(), OperatorStats()
        same(
            hash_group_by(feed(rows, as_iterator), GROUP_KEYS[key], aggregates, batch),
            batch,
            row_hash_group_by(rows, GROUP_KEYS[key], aggregates, oracle),
            oracle,
        )
        scalar = scalar_aggregate(feed(rows, as_iterator), aggregates, batch)
        assert repr(scalar) == repr(row_scalar_aggregate(rows, aggregates, oracle))
        assert batch.counts == oracle.counts

    def test_errors_are_the_oracles(self):
        with pytest.raises(QueryError):
            hash_join([], [], len, len, how="outer")
        with pytest.raises(QueryError):
            hash_group_by([{"v": 1}], len, {"x": ("median", len)})
        with pytest.raises(UnknownColumnError):
            project([{"a": 1}], ["b"])

    def test_an_empty_batch_bumps_nothing(self):
        stats = OperatorStats()
        filter_rows([], bool, stats)
        project(iter([]), ["a"], stats=stats)
        hash_join([], [], len, len, stats)
        hash_group_by([], len, {"n": ("count", len)}, stats)
        assert stats.counts == {}


# ------------------------------------------------------ plans on TPC-H data


@pytest.fixture(scope="module")
def tpch():
    return loaded_cluster(num_nodes=3, scale=0.0003)


class TestTpchPlansAgainstTheRowOracles:
    def test_q1_q3_q6_answers_and_reports_are_bit_identical_across_rebalances(
        self, tpch, monkeypatch
    ):
        cluster, _ = tpch
        executor = ClusterQueryExecutor(cluster)
        plans = {"q1": q1_plan, "q6": q6_plan, "q3": q3_plan}

        def run_all():
            return {name: executor.execute_plan(name, plan()) for name, plan in plans.items()}

        for resize in (0, -1, 1):
            if resize:
                assert drain(cluster.rebalance_to_steps(cluster.num_nodes + resize)).committed
            batch = run_all()
            with monkeypatch.context() as patched:
                install_row_at_a_time(patched)
                oracle = run_all()
            assert executor_module.QueryContext is QueryContext
            for name in plans:
                (result, report), (expected, expected_report) = batch[name], oracle[name]
                assert repr(result) == repr(expected)
                assert report == expected_report
                assert report.records_scanned > 0

    def test_scans_return_iterators_over_whole_lists(self, tpch):
        cluster, _ = tpch
        context = QueryContext(ClusterQueryExecutor(cluster))
        rows = context.scan("orders")
        assert iter(rows) is rows  # an iterator, not a list
        assert context.records_scanned == cluster.dataset("orders").record_count()  # priced at the call
        assert len(list(rows)) == cluster.dataset("orders").record_count()
        index_rows = context.scan_index("lineitem", LINEITEM_INDEX.name)
        assert iter(index_rows) is index_rows


class TestLimitIsPriced:
    """A LIMIT takes a few rows of a scan that was read in full: every
    partition is charged for what it read, as without the LIMIT."""

    @pytest.mark.parametrize("filtered", [True, False])
    def test_a_limited_query_costs_its_whole_scan(self, filtered):
        with Database(ClusterConfig(num_nodes=2), strategy="dynahash") as db:
            table = db.create_dataset("t", primary_key="k")
            table.insert([{"k": i, "v": i} for i in range(2000)])

            def plan(count=None):
                def run(context):
                    rows = context.scan(table.name)
                    if filtered:
                        rows = filter_rows(rows, lambda row: row["v"] % 2 == 0, context.operator_stats)
                    return rows if count is None else limit(rows, count)

                return run

            _, everything = db.execute("everything", plan())
            limited_rows, limited = db.execute("limited", plan(5))
        assert len(limited_rows) == 5
        assert limited.records_scanned == everything.records_scanned == 2000
        assert limited.per_node_seconds == everything.per_node_seconds
        assert set(limited.per_node_seconds) == {"nc0", "nc1"}


class TestLookupAccess:
    def test_one_lookup_run_per_partition_priced_as_the_key_loop(self, tpch, monkeypatch):
        cluster, _ = tpch
        executor = ClusterQueryExecutor(cluster)
        spec = QuerySpec("lookups", [TableAccess("orders", ACCESS_PRIMARY_KEY_LOOKUPS, lookups=40)])
        calls = {"lookup": 0, "lookup_many": 0}
        for name in calls:

            def counting(partition, *args, _name=name, _method=getattr(StoragePartition, name)):
                calls[_name] += 1
                return _method(partition, *args)

            monkeypatch.setattr(StoragePartition, name, counting)
        report = executor.execute_spec(spec)
        partitions = cluster.dataset("orders").partitions
        assert calls == {"lookup": 0, "lookup_many": len(partitions)}
        assert report.records_scanned == len(partitions) * (40 // len(partitions))

        def key_by_key(partition, keys, hashes):
            # Each key probed alone, a one-key run of the bucketed primary
            # index (``StoragePartition.lookup`` is itself a one-key
            # ``lookup_many``, which this replaces).
            return [
                partition.primary.lookup_many([key], [hashed])[0][0]
                for key, hashed in zip(keys, hashes, strict=True)
            ], []

        monkeypatch.setattr(StoragePartition, "lookup_many", key_by_key)
        assert executor.execute_spec(spec) == report
