"""Cluster-parallel query execution.

Two execution styles are provided, both returning a
:class:`~repro.cluster.reports.QueryReport` whose simulated duration follows
the shared-nothing rule that a query is as slow as its slowest node:

* :meth:`ClusterQueryExecutor.execute_spec` runs an *access-pattern spec*
  (which indexes are scanned, how selective the query is, how compute-heavy
  its operator pipeline is).  The 22 TPC-H queries of the evaluation are
  described this way (:mod:`repro.tpch.queries`), which is what the Figure 8/9
  benchmarks execute.
* :meth:`ClusterQueryExecutor.execute_plan` runs a *real operator plan* built
  from :mod:`repro.query.operators` against the simulated partitions via a
  :class:`QueryContext`; examples and tests use this to get actual query
  results (e.g. TPC-H q1/q6 aggregates) with the same cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..bucketed.scan import estimate_merge_comparisons
from ..common.errors import QueryError
from ..common.hashutil import hash_key
from ..cluster.reports import QueryReport
from .operators import OperatorStats, Row

#: How a query reads one dataset.
ACCESS_FULL_SCAN = "full_scan"
ACCESS_SECONDARY_INDEX = "secondary_index"
ACCESS_PRIMARY_KEY_LOOKUPS = "primary_key_lookups"


@dataclass(frozen=True)
class TableAccess:
    """One dataset access performed by a query."""

    dataset: str
    access: str = ACCESS_FULL_SCAN
    #: Secondary index name for ACCESS_SECONDARY_INDEX.
    index_name: Optional[str] = None
    #: How many times the query scans this input (TPC-H q21 reads LineItem
    #: several times).
    scan_count: int = 1
    #: Fraction of scanned records that survive the first filter and flow
    #: through the rest of the operator pipeline.
    selectivity: float = 1.0
    #: Number of point lookups for ACCESS_PRIMARY_KEY_LOOKUPS.
    lookups: int = 0

    def __post_init__(self) -> None:
        if self.access not in (
            ACCESS_FULL_SCAN,
            ACCESS_SECONDARY_INDEX,
            ACCESS_PRIMARY_KEY_LOOKUPS,
        ):
            raise QueryError(f"unknown access kind {self.access!r}")
        if self.access == ACCESS_SECONDARY_INDEX and not self.index_name:
            raise QueryError("secondary index access needs an index name")
        if not 0.0 <= self.selectivity <= 1.0:
            raise QueryError("selectivity must be within [0, 1]")
        if self.scan_count < 1:
            raise QueryError("scan_count must be at least 1")


@dataclass(frozen=True)
class QuerySpec:
    """An access-pattern description of one OLAP query."""

    name: str
    accesses: Sequence[TableAccess]
    #: Average number of pipeline operators each surviving record passes
    #: through (joins, group-bys, expression evaluation) — the query's
    #: compute-heaviness.
    operator_depth: int = 4
    #: True if the scan must return records in primary-key order (q18's
    #: group-by on a prefix of LineItem's primary key).
    requires_primary_key_order: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.operator_depth < 1:
            raise QueryError("operator_depth must be at least 1")
        if not self.accesses:
            raise QueryError(f"query {self.name!r} accesses no datasets")


class QueryContext:
    """Gives a real operator plan access to cluster data with cost tracking."""

    def __init__(self, executor: "ClusterQueryExecutor") -> None:
        self._executor = executor
        self.operator_stats = OperatorStats()
        #: per (node, partition) scan seconds accumulated by the scans.
        self.partition_seconds: Dict[int, float] = {}
        self.bytes_scanned = 0
        self.records_scanned = 0

    def scan(self, dataset: str, ordered: bool = False) -> Iterator[Row]:
        """Scan a dataset's primary index across every partition."""
        return iter(self._scan_impl(dataset, None, ordered))

    def scan_index(self, dataset: str, index_name: str) -> Iterator[Row]:
        """Scan a covering secondary index; yields covered fields plus keys."""
        return iter(self._scan_impl(dataset, index_name, False))

    def _scan_impl(self, dataset: str, index_name: Optional[str], ordered: bool) -> List[Row]:
        """Every partition's rows, one list per partition, each partition
        charged as it is read: a scan is priced in full at the call, however
        many of its rows the plan goes on to take (a LIMIT included)."""
        cluster = self._executor.cluster
        cost = cluster.cost
        runtime = cluster.dataset(dataset)
        spec = runtime.spec
        rows: List[Row] = []
        for pid, partition in sorted(runtime.partitions.items()):
            before = partition.stats_snapshot()
            if index_name is None:
                batch = [dict(entry.value) for entry in partition.scan_primary(ordered=ordered)]
            else:
                key_fields = spec.index(index_name).key_fields
                batch = []
                for entry in partition.scan_secondary(index_name):
                    row = dict(entry.value) if isinstance(entry.value, dict) else {}
                    row.update(zip(key_fields, entry.key[:-1], strict=True))
                    row["_pk"] = entry.key[-1]
                    batch.append(row)
            records = len(batch)
            rows += batch
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
        return rows


class ClusterQueryExecutor:
    """Executes queries over a :class:`~repro.cluster.controller.SimulatedCluster`."""

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------ spec mode

    def execute_spec(self, spec: QuerySpec) -> QueryReport:
        """Run an access-pattern spec and return its report."""
        cost = self.cluster.cost
        per_partition_seconds: Dict[int, float] = {}
        total_bytes = 0
        total_records = 0
        survived_records = 0
        pipeline_seconds_total = 0.0

        for access in spec.accesses:
            runtime = self.cluster.dataset(access.dataset)
            for pid, partition in runtime.partitions.items():
                before = partition.stats_snapshot()
                if access.access == ACCESS_FULL_SCAN:
                    ordered = spec.requires_primary_key_order
                    records = len(list(partition.scan_primary(ordered=ordered)))
                elif access.access == ACCESS_SECONDARY_INDEX:
                    records = len(list(partition.scan_secondary(access.index_name)))
                else:  # primary-key lookups: a sample of the partition's keys, one probe run
                    lookups_here = max(1, access.lookups // max(1, len(runtime.partitions)))
                    keys = [entry.key for entry in partition.scan_primary()][:lookups_here]
                    if keys:
                        partition.lookup_many(keys, list(map(hash_key, keys)))
                    records = len(keys)
                delta = partition.stats_snapshot().diff(before)
                scan_seconds = (
                    cost.disk_read_time(delta.bytes_read)
                    + cost.component_open_time(delta.components_opened)
                    + cost.operator_time(records)
                )
                if spec.requires_primary_key_order and access.access == ACCESS_FULL_SCAN:
                    scan_seconds += cost.compare_time(
                        estimate_merge_comparisons(partition.primary.bucket_count, records)
                    )
                surviving = records * access.selectivity
                # The operator pipeline above the scan runs after a shuffle,
                # so its work is spread evenly over the cluster regardless of
                # how (im)balanced the storage is — which is why the paper's
                # computation-heavy queries barely notice the load imbalance
                # while scan-heavy ones do.
                pipeline_seconds_total += (
                    cost.operator_time(surviving * (spec.operator_depth - 1)) * access.scan_count
                )
                seconds = scan_seconds * access.scan_count
                per_partition_seconds[pid] = per_partition_seconds.get(pid, 0.0) + seconds
                total_bytes += delta.bytes_read * access.scan_count
                total_records += records * access.scan_count
                survived_records += int(surviving)

        per_node_seconds = self._roll_up_by_node(per_partition_seconds)
        if per_node_seconds:
            balanced_share = pipeline_seconds_total / len(per_node_seconds)
            for node_id in per_node_seconds:
                per_node_seconds[node_id] += balanced_share
        chaos = self.cluster.chaos
        if chaos is not None:
            per_node_seconds = dict(chaos.scale_node_seconds(per_node_seconds))
        # The final (coordinator-side) combine touches the surviving records
        # once more; it is usually negligible next to the parallel part.
        combine_seconds = cost.operator_time(survived_records) + cost.rpc_time(2)
        return QueryReport(
            query_name=spec.name,
            dataset_names=sorted({access.dataset for access in spec.accesses}),
            rows_returned=survived_records,
            simulated_seconds=cost.slowest(per_node_seconds) + combine_seconds,
            per_node_seconds=per_node_seconds,
            bytes_scanned=total_bytes,
            records_scanned=total_records,
        )

    # ------------------------------------------------------------ plan mode

    def execute_plan(
        self,
        name: str,
        plan: Callable[[QueryContext], Any],
        operator_depth_hint: int = 1,
    ) -> "tuple[Any, QueryReport]":
        """Run a real operator plan; returns (result, report)."""
        cost = self.cluster.cost
        context = QueryContext(self)
        result = plan(context)
        if hasattr(result, "__iter__") and not isinstance(result, (list, dict, str)):
            result = list(result)
        per_node_seconds = self._roll_up_by_node(context.partition_seconds)
        chaos = self.cluster.chaos
        if chaos is not None:
            per_node_seconds = dict(chaos.scale_node_seconds(per_node_seconds))
        operator_seconds = cost.operator_time(
            context.operator_stats.total_records_processed * operator_depth_hint
        )
        rows_returned = len(result) if isinstance(result, list) else 1
        report = QueryReport(
            query_name=name,
            dataset_names=[],
            rows_returned=rows_returned,
            simulated_seconds=cost.slowest(per_node_seconds) + operator_seconds + cost.rpc_time(2),
            per_node_seconds=per_node_seconds,
            bytes_scanned=context.bytes_scanned,
            records_scanned=context.records_scanned,
        )
        return result, report

    # --------------------------------------------------------------- helpers

    def _roll_up_by_node(self, per_partition_seconds: Mapping[int, float]) -> Dict[str, float]:
        """Partitions on a node run in parallel; a node is as slow as its
        busiest partition."""
        per_node: Dict[str, float] = {}
        for pid, seconds in per_partition_seconds.items():
            node_id = self.cluster.node_of_partition(pid).node_id
            per_node[node_id] = max(per_node.get(node_id, 0.0), seconds)
        return per_node
