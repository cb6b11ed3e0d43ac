"""Data feeds: long-running ingestion jobs.

AsterixDB ingests external data through *data feeds* (Section II-C).  A feed
takes an immutable copy of the dataset's partitioning state when it starts and
uses it to route every incoming record to its NC partition; maintenance
(flushes, merges, bucket splits) runs as the data arrives.

The feed also computes the simulated ingestion time: per-partition storage
work plus the CPU-heavy record parsing, rolled up per node (partitions on the
same node work in parallel; the node's network link is shared) and then across
nodes with slowest-node semantics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..bucketed.bucketed_lsm import MaintenanceReport
from ..common.hashutil import hash_key
from ..lsm.stats import StorageStats
from .cost_model import CostModel
from .reports import IngestReport


class DataFeed:
    """Routes and ingests records for one dataset."""

    def __init__(self, cluster: "SimulatedCluster", dataset_name: str, batch_size: int = 2000) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.cluster = cluster
        self.dataset_name = dataset_name
        self.batch_size = batch_size
        self.runtime = cluster.dataset(dataset_name)
        # The feed works off an immutable snapshot of the routing state; a
        # concurrent rebalance swaps the live directory, not this copy.
        self.routing = self.runtime.routing_snapshot()

    # ---------------------------------------------------------------- routing

    def route(self, record: Mapping[str, Any]) -> int:
        """Partition id that should store ``record``."""
        key = self.runtime.spec.primary_key_of(record)
        return self.routing.partition_of(key)

    # ----------------------------------------------------------------- ingest

    def ingest(self, rows: Iterable[Mapping[str, Any]], maintain: bool = True) -> IngestReport:
        """Ingest ``rows`` and return an :class:`IngestReport`.

        Rows are routed in arrival order but landed **a run per bucket
        tree**, one batch at a time: primary keys are extracted and hashed
        once (shared by routing and insertion), each partition receives its
        slice of the batch through :meth:`StoragePartition.insert_many`,
        which lands it with one write per touched bucket tree and index,
        and the maintenance pass still runs on the same
        every-``batch_size``-rows boundaries.  Each tree receives its rows in
        arrival order, so the resulting storage state — and therefore the
        simulated cost — is identical to a row-at-a-time loop.

        Each partition's storage work is what its passes report: every
        :class:`MaintenanceReport` that did something is summed into that
        partition's accumulator, and the sum is what the cost model prices.
        Rows only land in memory components, so the passes are where all the
        flushes, merges and splits happen.  A partition that took no row and
        whose passes did nothing costs ``0.0`` without a cost-model call.

        A sweep skips the partitions already *settled* in this call: those
        whose last pass here reported :attr:`MaintenanceReport.idle` and that
        no batch has written to since.  Nothing else touches a partition
        during the call and a pass is a deterministic function of the
        partition's state, so a pass over an unchanged idle partition would
        be idle again and change nothing.  The set ends with the call: the
        feed sees only its own writes, and between calls a delete, another
        feed or a rebalance may change a partition, and the previous call's
        last pass may have left work (a pass is one step, not a fixpoint).
        So the first sweep of a call visits every partition, and a
        single-row ingest runs one pass per partition.  A pass over a tree
        with no disk components (every tree of a dataset that fits in
        memory) sizes no component and asks no merge policy.

        ``maintain=False`` skips flush/merge/split scheduling, which some unit
        tests use to control storage state precisely.
        """
        events = self.cluster.events
        if events.has_subscribers("ingest.start"):
            events.emit("ingest.start", dataset=self.dataset_name)
        cost: CostModel = self.cluster.cost
        partitions = self.runtime.partitions
        # Storage work per partition, from the passes that reported any.
        work: Dict[int, MaintenanceReport] = {}
        records_per_partition: Dict[int, int] = {pid: 0 for pid in partitions}
        bytes_per_partition: Dict[int, int] = {pid: 0 for pid in partitions}
        total_records = 0
        total_bytes = 0
        batch_count = 0

        primary_key_of = self.runtime.spec.primary_key_of
        partition_of_hash = self.routing.partition_of_hash
        batch_size = self.batch_size
        heat = self.cluster.heat
        dataset_name = self.dataset_name
        #: The current batch, grouped by target partition (arrival order
        #: within each partition; the partition groups it by bucket tree).
        grouped: Dict[int, List[Tuple[Any, int, Mapping[str, Any]]]] = {}
        #: Partitions whose last pass in this call was idle and that took no
        #: row since: a pass over them would change nothing.
        settled: Set[int] = set()

        def land_batch() -> None:
            nonlocal total_bytes
            for pid, routed_rows in grouped.items():
                # The partition copies and sizes each row once, as it stores it.
                landed_bytes = sum(partitions[pid].insert_many(routed_rows)[1])
                records_per_partition[pid] += len(routed_rows)
                settled.discard(pid)
                bytes_per_partition[pid] += landed_bytes
                total_bytes += landed_bytes
            grouped.clear()

        def maintain_all() -> None:
            # Every partition not settled in this call.  The set is not kept
            # across calls: the feed does not see what changes a partition
            # between them, and the previous call's last pass may have left
            # work.
            for pid, partition in partitions.items():
                if pid in settled:
                    continue
                report = partition.maintain()
                if report.idle:
                    settled.add(pid)
                    continue
                total = work.get(pid)
                if total is None:
                    work[pid] = report
                else:
                    report.merge_into(total)

        for row in rows:
            key = primary_key_of(row)
            hashed = hash_key(key)
            pid = partition_of_hash(hashed)
            if heat is not None:
                heat.record_write(dataset_name, hashed)
            group = grouped.get(pid)
            if group is None:
                group = grouped[pid] = []
            group.append((key, hashed, row))
            total_records += 1
            batch_count += 1
            if batch_count >= batch_size:
                batch_count = 0
                land_batch()
                if maintain:
                    maintain_all()
        land_batch()
        if maintain:
            maintain_all()

        # ------------------------------------------------ cost roll-up
        flush_bytes = 0
        merge_bytes = 0
        splits = 0
        # Per node (a partition's node is ``pid // partitions_per_node``):
        # its busiest partition's seconds and the bytes its link carried.
        partitions_per_node = self.cluster.partitions_per_node
        busiest: Dict[int, float] = {}
        node_bytes: Dict[int, int] = {}
        for pid, records in records_per_partition.items():
            done = work.get(pid)
            if done is not None:
                flush_bytes += done.flush_bytes
                merge_bytes += done.merge_write_bytes
                splits += len(done.splits)
                seconds = cost.ingest_work(records, done.storage_stats()).total_sec
            elif records:
                seconds = cost.ingest_work(records, StorageStats()).total_sec
            else:
                seconds = 0.0
            index = pid // partitions_per_node
            busiest[index] = max(busiest.get(index, 0.0), seconds)
            node_bytes[index] = node_bytes.get(index, 0) + bytes_per_partition[pid]
        per_node_seconds: Dict[str, float] = {
            node.node_id: busiest[index] + cost.network_time(node_bytes[index])
            for index, node in enumerate(self.cluster.nodes)
            if index in busiest
        }

        chaos = self.cluster.chaos
        if chaos is not None:
            per_node_seconds = dict(chaos.scale_node_seconds(per_node_seconds))
        simulated_seconds = cost.slowest(per_node_seconds) + cost.rpc_time(2)
        if chaos is not None:
            # Backpressure stretches the feed itself; a client burst contends
            # for the same links, so both distortions land on the ingest time.
            simulated_seconds *= chaos.ingest_factor() * chaos.client_factor()
        report = IngestReport(
            dataset=self.dataset_name,
            records=total_records,
            bytes_ingested=total_bytes,
            simulated_seconds=simulated_seconds,
            per_node_seconds=per_node_seconds,
            per_partition_records=records_per_partition,
            splits=splits,
            flush_bytes=flush_bytes,
            merge_bytes=merge_bytes,
        )
        self.runtime.records_ingested += total_records
        self.cluster.events.emit(
            "ingest.complete",
            dataset=self.dataset_name,
            records=total_records,
            splits=splits,
            report=report,
        )
        return report


class RoutingSnapshot:
    """An immutable routing function captured when a feed or query starts."""

    def __init__(self, mode: str, directory: Optional[Any] = None, num_partitions: int = 0) -> None:
        if mode not in ("directory", "modulo"):
            raise ValueError(f"unknown routing mode {mode!r}")
        if mode == "directory" and directory is None:
            raise ValueError("directory routing needs a directory")
        if mode == "modulo" and num_partitions < 1:
            raise ValueError("modulo routing needs a positive partition count")
        self.mode = mode
        self.directory = directory.copy() if directory is not None else None
        self.num_partitions = num_partitions

    def partition_of(self, key: Any) -> int:
        return self.partition_of_hash(hash_key(key))

    def partition_of_hash(self, hashed: int) -> int:
        """Route an already-hashed key (the feed hashes once per row and
        shares the hash with the storage layer)."""
        if self.mode == "directory":
            return self.directory.lookup_hash(hashed)[1]
        return hashed % self.num_partitions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.mode == "directory":
            return f"RoutingSnapshot(directory, buckets={len(self.directory)})"
        return f"RoutingSnapshot(modulo, partitions={self.num_partitions})"
