"""Simulated what-if planning: projecting a rebalance without running it.

The :class:`WhatIfPlanner` answers "what would resizing to N nodes cost, and
how balanced would the cluster be afterwards?" *without* touching the cluster.
For every directory-routed dataset it runs the same Algorithm 2 (BALANCE)
greedy pass the real rebalance operation would run
(:func:`repro.rebalance.plan.compute_balanced_directory` is pure), prices the
resulting bucket moves with the cluster's
:class:`~repro.cluster.cost_model.CostModel` under slowest-node semantics,
and projects the per-node byte distribution after the moves.  The Hashing
baseline (modulo routing) is modelled as the paper describes it: the dataset
is rebuilt hash-partitioned over the new node set, moving nearly everything.

Projections are estimates, not measurements — they price data movement only
(scan at the source, ship, load at the destination, plus per-record
repartitioning CPU and the protocol's control messages), which is the
dominant term the paper's Figure 7 measures.  They are also deterministic:
same cluster state, same projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, TYPE_CHECKING, Tuple

from ..hashing.extendible import GlobalDirectory
from ..rebalance.plan import compute_balanced_directory
from .observation import balance_ratio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database


@dataclass(frozen=True)
class PlanProjection:
    """The simulated outcome of one candidate resize."""

    target_nodes: int
    feasible: bool
    #: Why an infeasible candidate was rejected (empty when feasible).
    reason: str = ""
    buckets_moved: int = 0
    bytes_moved: int = 0
    #: Estimated records moved (apportioned from byte shares).
    records_moved: int = 0
    #: Estimated data-movement seconds (slowest node completes the step).
    estimated_seconds: float = 0.0
    #: Projected per-node byte skew after the moves (max/mean, 1.0 = perfect).
    projected_balance_ratio: float = 1.0
    projected_max_node_bytes: int = 0
    #: ``(node_id, bytes)`` after the moves, sorted by node id.
    projected_storage_per_node: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.feasible:
            return f"PlanProjection(target={self.target_nodes}, infeasible: {self.reason})"
        return (
            f"PlanProjection(target={self.target_nodes}, "
            f"{self.buckets_moved} buckets / {self.bytes_moved} bytes, "
            f"~{self.estimated_seconds:.2f}s, balance={self.projected_balance_ratio:.2f})"
        )


class WhatIfPlanner:
    """Simulates candidate resizes of one database session's cluster."""

    def __init__(self, db: "Database") -> None:
        self.db = db

    # ------------------------------------------------------------- projection

    def project(self, target_nodes: int) -> PlanProjection:
        """Project resizing the cluster to ``target_nodes`` (which may equal
        the current size: a *re-target* re-runs Algorithm 2 over the same
        partitions to spread buckets that drifted out of balance)."""
        cluster = self.db.cluster
        if target_nodes < 1:
            return PlanProjection(
                target_nodes, feasible=False, reason="clusters need at least one node"
            )
        ppn = cluster.partitions_per_node
        target_pids = list(range(target_nodes * ppn))
        all_nodes = max(target_nodes, cluster.num_nodes)
        node_of = {pid: f"nc{pid // ppn}" for pid in range(all_nodes * ppn)}
        target_node_ids = [f"nc{index}" for index in range(target_nodes)]

        projected_bytes: Dict[int, int] = {pid: 0 for pid in target_pids}
        shipped_from: Dict[str, int] = {}
        received_by: Dict[str, int] = {}
        buckets_moved = 0
        bytes_moved = 0
        records_moved = 0

        for name in cluster.dataset_names():
            runtime = cluster.dataset(name)
            part_bytes = {pid: p.size_bytes for pid, p in runtime.partitions.items()}
            for pid, size in part_bytes.items():
                if pid in projected_bytes:
                    projected_bytes[pid] += size
            dataset_bytes = sum(part_bytes.values())
            dataset_records = runtime.record_count()
            if runtime.global_directory is None:
                # Hashing baseline: the dataset is recreated hash-partitioned
                # over the target set, so virtually every record moves and the
                # result is evenly spread.
                buckets_moved += len(runtime.partitions)
                bytes_moved += dataset_bytes
                records_moved += dataset_records
                for pid, size in part_bytes.items():
                    node = node_of[pid]
                    shipped_from[node] = shipped_from.get(node, 0) + size
                    if pid in projected_bytes:
                        projected_bytes[pid] -= size
                if target_pids:
                    share = dataset_bytes // len(target_pids)
                    for pid in target_pids:
                        projected_bytes[pid] += share
                        node = node_of[pid]
                        received_by[node] = received_by.get(node, 0) + share
                continue

            bucket_bytes: Dict[object, int] = {}
            for partition in runtime.partitions.values():
                bucket_bytes.update(partition.bucket_sizes())
            # Plan from the NCs' *local* directories, exactly as the real
            # operation's initialization phase does — bucket splits happen
            # locally, so the CC's global directory may be stale and would
            # under-count the movable buckets.
            local_directories = {
                pid: partition.primary.directory
                for pid, partition in runtime.partitions.items()
            }
            refreshed = GlobalDirectory.from_local_directories(local_directories)
            plan = compute_balanced_directory(refreshed, target_pids, node_of)
            for move in plan.moves:
                size = bucket_bytes.get(move.bucket, 0)
                buckets_moved += 1
                bytes_moved += size
                if dataset_bytes:
                    records_moved += round(dataset_records * size / dataset_bytes)
                if move.source_partition is not None:
                    source_node = node_of[move.source_partition]
                    shipped_from[source_node] = shipped_from.get(source_node, 0) + size
                    if move.source_partition in projected_bytes:
                        projected_bytes[move.source_partition] -= size
                destination_node = node_of[move.destination_partition]
                received_by[destination_node] = received_by.get(destination_node, 0) + size
                projected_bytes[move.destination_partition] += size

        per_node: Dict[str, int] = {node: 0 for node in target_node_ids}
        for pid, size in projected_bytes.items():
            per_node[node_of[pid]] += max(0, size)
        node_values = [per_node[node] for node in target_node_ids]
        balance = balance_ratio(node_values)

        return PlanProjection(
            target_nodes=target_nodes,
            feasible=True,
            buckets_moved=buckets_moved,
            bytes_moved=bytes_moved,
            records_moved=records_moved,
            estimated_seconds=self._movement_seconds(
                shipped_from, received_by, records_moved
            ),
            projected_balance_ratio=balance,
            projected_max_node_bytes=max(node_values) if node_values else 0,
            projected_storage_per_node=tuple(sorted(per_node.items())),
        )

    def candidates(self, target_node_counts: Iterable[int]) -> List[PlanProjection]:
        """Project every candidate size (deduplicated, ascending)."""
        return [self.project(count) for count in sorted(set(target_node_counts))]

    # ---------------------------------------------------------------- costing

    def _movement_seconds(
        self,
        shipped_from: Dict[str, int],
        received_by: Dict[str, int],
        records_moved: int,
    ) -> float:
        """Price the projected movement with slowest-node semantics.

        Each node scans and ships what leaves it and loads what arrives; the
        step completes when the slowest node finishes (Section II-A).  The
        repartitioning CPU is apportioned by each node's share of the moved
        bytes.
        """
        cost = self.db.cluster.cost
        total_bytes = sum(shipped_from.values()) + sum(received_by.values())
        per_node: Dict[str, float] = {}
        for node in set(shipped_from) | set(received_by):
            out_bytes = shipped_from.get(node, 0)
            in_bytes = received_by.get(node, 0)
            share = (out_bytes + in_bytes) / total_bytes if total_bytes else 0.0
            per_node[node] = (
                cost.disk_read_time(out_bytes)
                + cost.network_time(max(out_bytes, in_bytes))
                + cost.disk_write_time(in_bytes)
                + cost.compare_time(records_moved * share)
            )
        # Control messages: one round trip per participating node.
        return cost.slowest(per_node) + cost.rpc_time(2 * max(1, len(per_node)))
