"""The cost model: converting physical work into simulated seconds.

The paper's experiments ran on real AWS hardware; this reproduction replaces
wall-clock measurement with explicit accounting.  Every storage, network and
CPU action reports *work* (bytes moved, records touched, messages sent) and
the cost model converts that work into seconds using the throughput/latency
parameters of :class:`repro.common.config.CostModelConfig`.

Two ideas matter for reproducing the figures:

* **Slowest-node semantics** — "in a shared-nothing system the query time is
  bottlenecked by the slowest node" (Section II-A).  Cluster-level durations
  are computed with :func:`slowest` over per-node durations.
* **Workload scaling** — benchmarks ingest megabytes, not the paper's 100 GB
  per node.  ``workload_scale`` multiplies the *work* (not the parameters), so
  a run over 1/5000th of the data reports times in the same ballpark as the
  paper while every relative comparison remains a pure function of the
  simulated system's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from ..common.config import CostModelConfig
from ..lsm.stats import StorageStats


@dataclass
class WorkBreakdown:
    """A durations-by-category record, useful for reports and debugging."""

    disk_read_sec: float = 0.0
    disk_write_sec: float = 0.0
    network_sec: float = 0.0
    cpu_sec: float = 0.0
    rpc_sec: float = 0.0

    @property
    def total_sec(self) -> float:
        return (
            self.disk_read_sec
            + self.disk_write_sec
            + self.network_sec
            + self.cpu_sec
            + self.rpc_sec
        )

    def add(self, other: "WorkBreakdown") -> None:
        self.disk_read_sec += other.disk_read_sec
        self.disk_write_sec += other.disk_write_sec
        self.network_sec += other.network_sec
        self.cpu_sec += other.cpu_sec
        self.rpc_sec += other.rpc_sec


class CostModel:
    """Converts work into simulated seconds."""

    def __init__(self, config: Optional[CostModelConfig] = None, workload_scale: float = 1.0) -> None:
        if workload_scale <= 0:
            raise ValueError("workload_scale must be positive")
        self.config = config or CostModelConfig()
        self.workload_scale = workload_scale

    # ----------------------------------------------------------- primitives

    def disk_read_time(self, num_bytes: float) -> float:
        """Seconds to sequentially read ``num_bytes`` from one partition's disk."""
        return self._scale(num_bytes) / self.config.disk_read_bytes_per_sec

    def disk_write_time(self, num_bytes: float) -> float:
        """Seconds to sequentially write ``num_bytes`` to one partition's disk."""
        return self._scale(num_bytes) / self.config.disk_write_bytes_per_sec

    def network_time(self, num_bytes: float) -> float:
        """Seconds to ship ``num_bytes`` over one node's network link."""
        return self._scale(num_bytes) / self.config.network_bytes_per_sec

    def parse_time(self, num_records: float) -> float:
        """CPU seconds to parse ``num_records`` ingested records."""
        return self._scale(num_records) * self.config.cpu_parse_record_sec

    def compare_time(self, num_records: float) -> float:
        """CPU seconds for merge/sort comparisons over ``num_records``."""
        return self._scale(num_records) * self.config.cpu_compare_record_sec

    def operator_time(self, num_records: float) -> float:
        """CPU seconds for one query operator to process ``num_records``."""
        return self._scale(num_records) * self.config.cpu_operator_record_sec

    def rpc_time(self, num_messages: int = 1) -> float:
        """Seconds of control-message latency (not scaled by workload size)."""
        return num_messages * self.config.rpc_latency_sec

    def component_open_time(self, num_components: int) -> float:
        """Seconds of per-component open/seek overhead (not workload scaled)."""
        return num_components * self.config.component_open_sec

    def _scale(self, quantity: float) -> float:
        return quantity * self.workload_scale

    # ---------------------------------------------------------- aggregates

    def storage_work(self, stats: StorageStats) -> WorkBreakdown:
        """Cost of the storage activity captured in a stats delta.

        Flushes and merge outputs are disk writes, merge inputs and query
        reads are disk reads, merge reconciliation is CPU, and every component
        open pays a small fixed cost.
        """
        breakdown = WorkBreakdown()
        breakdown.disk_write_sec += self.disk_write_time(stats.total_disk_write_bytes)
        breakdown.disk_read_sec += self.disk_read_time(stats.total_disk_read_bytes)
        breakdown.cpu_sec += self.compare_time(stats.records_merged)
        breakdown.rpc_sec += 0.0
        breakdown.cpu_sec += self.component_open_time(stats.components_opened)
        return breakdown

    def ingest_work(self, num_records: int, stats: StorageStats) -> WorkBreakdown:
        """Cost of ingesting ``num_records`` whose storage activity is ``stats``.

        Record parsing dominates CPU (the paper observes AsterixDB ingestion
        is CPU-heavy); flush/merge I/O and merge CPU come from the stats.
        """
        breakdown = self.storage_work(stats)
        breakdown.cpu_sec += self.parse_time(num_records)
        return breakdown

    def movement_work(
        self, bytes_scanned: float, bytes_shipped: float, bytes_loaded: float, records: float
    ) -> WorkBreakdown:
        """Cost of moving rebalance data: scan at the source, ship, load at the
        destination, plus per-record repartitioning CPU."""
        breakdown = WorkBreakdown()
        breakdown.disk_read_sec += self.disk_read_time(bytes_scanned)
        breakdown.network_sec += self.network_time(bytes_shipped)
        breakdown.disk_write_sec += self.disk_write_time(bytes_loaded)
        breakdown.cpu_sec += self.compare_time(records)
        return breakdown

    # --------------------------------------------------------- cluster math

    @staticmethod
    def slowest(per_node_seconds: Mapping[object, float]) -> float:
        """Completion time of a parallel step: the slowest node's time."""
        if not per_node_seconds:
            return 0.0
        return max(per_node_seconds.values())

    def node_seconds(
        self,
        partition_seconds: Mapping[int, float],
        partitions_per_node: int,
        partition_bytes: Optional[Mapping[int, int]] = None,
    ) -> Dict[int, float]:
        """Roll partition seconds up to nodes, keyed by node index (partition
        ``pid`` sits on node ``pid // partitions_per_node``): a node takes its
        busiest partition's seconds, since the partitions of one node work
        in parallel, plus, with ``partition_bytes``, the network time of the
        bytes its partitions took, since they share the node's link.  Every
        node with a partition in ``partition_seconds`` is a key."""
        busiest: Dict[int, float] = {}
        for pid, seconds in partition_seconds.items():
            index = pid // partitions_per_node
            if seconds > busiest.get(index, -1.0):
                busiest[index] = seconds
        if partition_bytes:
            node_bytes: Dict[int, int] = {}
            for pid, landed in partition_bytes.items():
                index = pid // partitions_per_node
                node_bytes[index] = node_bytes.get(index, 0) + landed
            for index, landed in node_bytes.items():
                busiest[index] += self.network_time(landed)
        return busiest

    @staticmethod
    def sum_breakdowns(breakdowns: Iterable[WorkBreakdown]) -> WorkBreakdown:
        total = WorkBreakdown()
        for breakdown in breakdowns:
            total.add(breakdown)
        return total


@dataclass
class TimedPhase:
    """A named phase duration inside a larger report (e.g. "data movement")."""

    name: str
    seconds: float
    per_node_seconds: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimedPhase({self.name!r}, {self.seconds:.2f}s)"
