"""Report objects returned by cluster-level operations.

Every cluster operation (ingest, query, rebalance) returns a report carrying
its *simulated* duration plus enough detail to explain it: per-node times (the
slowest node is the completion time), bytes moved, records processed.  The
benchmark harness prints these reports as the rows/series of the paper's
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..common.units import fmt_bytes, fmt_duration


@dataclass
class IngestReport:
    """Outcome of ingesting a batch of records through a data feed."""

    dataset: str
    records: int
    bytes_ingested: int
    simulated_seconds: float
    per_node_seconds: Dict[str, float] = field(default_factory=dict)
    per_partition_records: Dict[int, int] = field(default_factory=dict)
    splits: int = 0
    flush_bytes: int = 0
    merge_bytes: int = 0

    @property
    def simulated_minutes(self) -> float:
        return self.simulated_seconds / 60.0

    @property
    def bottleneck_node(self) -> str:
        if not self.per_node_seconds:
            return ""
        return max(self.per_node_seconds, key=self.per_node_seconds.get)

    def summary(self) -> str:
        return (
            f"ingested {self.records} records ({fmt_bytes(self.bytes_ingested)}) into "
            f"{self.dataset!r} in {fmt_duration(self.simulated_seconds)} "
            f"(splits={self.splits}, bottleneck={self.bottleneck_node})"
        )


@dataclass
class QueryReport:
    """Outcome of executing one query across the cluster."""

    query_name: str
    dataset_names: List[str]
    rows_returned: int
    simulated_seconds: float
    per_node_seconds: Dict[str, float] = field(default_factory=dict)
    bytes_scanned: int = 0
    records_scanned: int = 0

    @property
    def bottleneck_node(self) -> str:
        if not self.per_node_seconds:
            return ""
        return max(self.per_node_seconds, key=self.per_node_seconds.get)

    def summary(self) -> str:
        return (
            f"{self.query_name}: {self.rows_returned} rows in "
            f"{fmt_duration(self.simulated_seconds)} "
            f"({fmt_bytes(self.bytes_scanned)} scanned, bottleneck={self.bottleneck_node})"
        )


@dataclass
class RebalanceReport:
    """Outcome of one rebalance operation (committed or aborted)."""

    strategy: str
    dataset: str
    old_nodes: int
    new_nodes: int
    committed: bool
    simulated_seconds: float
    #: Seconds per phase: initialization, data movement, finalization.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    per_node_seconds: Dict[str, float] = field(default_factory=dict)
    buckets_moved: int = 0
    records_moved: int = 0
    bytes_scanned: int = 0
    bytes_shipped: int = 0
    bytes_loaded: int = 0
    concurrent_writes_applied: int = 0
    replicated_log_records: int = 0
    blocked_seconds: float = 0.0
    abort_reason: str = ""

    @property
    def simulated_minutes(self) -> float:
        return self.simulated_seconds / 60.0

    def summary(self) -> str:
        outcome = "committed" if self.committed else f"aborted ({self.abort_reason})"
        return (
            f"rebalance[{self.strategy}] {self.dataset!r} {self.old_nodes}->{self.new_nodes} nodes "
            f"{outcome} in {fmt_duration(self.simulated_seconds)}: "
            f"{self.buckets_moved} buckets, {self.records_moved} records, "
            f"{fmt_bytes(self.bytes_shipped)} shipped"
        )


@dataclass
class ClusterRebalanceReport:
    """Aggregate of rebalancing every dataset to a new cluster size."""

    strategy: str
    old_nodes: int
    new_nodes: int
    simulated_seconds: float
    dataset_reports: List[RebalanceReport] = field(default_factory=list)

    @property
    def simulated_minutes(self) -> float:
        return self.simulated_seconds / 60.0

    @property
    def committed(self) -> bool:
        return all(report.committed for report in self.dataset_reports)

    @property
    def total_records_moved(self) -> int:
        return sum(report.records_moved for report in self.dataset_reports)

    @property
    def total_bytes_shipped(self) -> int:
        return sum(report.bytes_shipped for report in self.dataset_reports)

    def summary(self) -> str:
        return (
            f"cluster rebalance[{self.strategy}] {self.old_nodes}->{self.new_nodes} nodes in "
            f"{fmt_duration(self.simulated_seconds)} "
            f"({self.total_records_moved} records, {fmt_bytes(self.total_bytes_shipped)} shipped)"
        )
