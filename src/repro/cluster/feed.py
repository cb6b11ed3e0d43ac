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

from itertools import islice
from typing import Any, Dict, Iterable, Mapping, Set

from ..bucketed.bucketed_lsm import MaintenanceReport
from ..common.hashutil import hash_key
from ..lsm.stats import StorageStats
from .cost_model import CostModel
from .reports import IngestReport
from .routing import touched_partitions

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

    # ----------------------------------------------------------------- ingest

    def ingest(self, rows: Iterable[Mapping[str, Any]], maintain: bool = True) -> IngestReport:
        """Ingest ``rows`` and return an :class:`IngestReport`.

        Rows are taken ``batch_size`` at a time (a generator is pulled one
        batch ahead, no further) and each batch travels as columns: one
        pass extracts the primary keys (``DatasetSpec.primary_key_of``), one
        hashes them, one routes the hashes through
        :meth:`RoutingSnapshot.partitions_of_hashes`, and
        :func:`touched_partitions` groups the positions by partition in
        first-touch order, checking each for a block (a refused batch lands
        and heats nothing).  Then the heat hook (when set) sees each hash in
        arrival order, and each partition lands its slice — keys, hashes
        and rows, in arrival order — with one
        :meth:`StoragePartition.insert_many`, which refuses the slice with
        nothing written when the partition does not own a hash or has a
        deactivated memory component.  A
        maintenance sweep follows every full batch and runs once more at the
        end, even after a full one.  Each tree receives its rows in arrival
        order, so the resulting storage state — and therefore the simulated
        cost — is identical to a row-at-a-time loop.

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
        #: Bytes landed per partition that took any row.
        bytes_per_partition: Dict[int, int] = {}
        total_records = 0
        total_bytes = 0

        key_of = self.runtime.spec.primary_key_of
        partitions_of_hashes = self.routing.partitions_of_hashes
        batch_size = self.batch_size
        heat = self.cluster.heat
        dataset_name = self.dataset_name
        #: Partitions whose last pass in this call was idle and that took no
        #: row since: a pass over them would change nothing.
        settled: Set[int] = set()

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

        source = iter(rows)
        while True:
            batch = list(islice(source, batch_size))
            if batch:
                keys = list(map(key_of, batch))
                hashes = list(map(hash_key, keys))
                touched = touched_partitions(partitions, partitions_of_hashes(hashes))
                if heat is not None:
                    for hashed in hashes:
                        heat.record_write(dataset_name, hashed)
                for partition, positions in touched:
                    pid = partition.partition_id
                    columns = (keys, hashes, batch)
                    if positions is not None:
                        columns = [list(map(column.__getitem__, positions)) for column in columns]
                    # The partition copies and sizes each row once, as it stores it.
                    landed_bytes = sum(partition.insert_many(*columns)[1])
                    records_per_partition[pid] += len(columns[0])
                    settled.discard(pid)
                    bytes_per_partition[pid] = bytes_per_partition.get(pid, 0) + landed_bytes
                    total_bytes += landed_bytes
                total_records += len(batch)
            if maintain:
                maintain_all()
            if len(batch) < batch_size:
                break

        # ------------------------------------------------ cost roll-up
        flush_bytes = 0
        merge_bytes = 0
        splits = 0
        partition_seconds: Dict[int, float] = {}
        for pid, records in records_per_partition.items():
            done = work.get(pid)
            if done is not None:
                flush_bytes += done.flush_bytes
                merge_bytes += done.merge_write_bytes
                splits += len(done.splits)
                partition_seconds[pid] = cost.ingest_work(records, done.storage_stats()).total_sec
            elif records:
                partition_seconds[pid] = cost.ingest_work(records, StorageStats()).total_sec
            else:
                partition_seconds[pid] = 0.0
        node_seconds = cost.node_seconds(
            partition_seconds, self.cluster.partitions_per_node, bytes_per_partition
        )
        per_node_seconds: Dict[str, float] = {
            node.node_id: node_seconds[index]
            for index, node in enumerate(self.cluster.nodes)
            if index in node_seconds
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
