"""The rebalance operation: initialization, data movement, finalization.

This is the Section V protocol end-to-end for one dataset:

* **Initialization** — the CC forces a BEGIN metadata log record, pulls the
  latest local directories from the NCs (bucket splits are local), disables
  further splits, computes the new global directory with Algorithm 2 (or uses
  a caller-supplied plan), and flushes the memory components of every moving
  bucket to create the immutable snapshots that define the rebalance start
  time.
* **Data movement** — the affected buckets' snapshots are scanned at their
  sources, shipped, and bulk-loaded into invisible received buckets and
  secondary-index component lists at their destinations; concurrent writes are
  applied at the source and their log records replicated to the destination.
* **Finalization** — a two-phase commit: the CC blocks the dataset briefly,
  waits for every NC to finish log replication and flush its rebalance memory
  components (the *prepare* votes), forces a COMMIT record, tells the NCs to
  install received buckets and clean up moved buckets (both idempotent),
  updates the global directory, unblocks, and finally writes DONE.

Node/CC failures can be injected at the protocol sites named in
:class:`FaultInjector`; the recovery manager in
:mod:`repro.rebalance.recovery` then drives the six cases of Section V-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from ..common.errors import FaultInjected, RebalanceAborted, RebalanceError
from ..hashing.bucket_id import BucketId
from ..hashing.extendible import GlobalDirectory
from ..lsm.wal import LogRecordType
from ..cluster.reports import RebalanceReport
from ..sim import SimSegment, drain
from .concurrency import LogReplicator
from .movement import DataMover, MovedBucket
from .plan import BucketMove, RebalancePlan, compute_balanced_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime, SimulatedCluster


#: Protocol sites where a fault can be injected, in timeline order.
FAULT_SITES = (
    "nc_fail_before_prepare",       # Case 1
    "nc_fail_after_prepare",        # Case 2
    "cc_fail_before_commit",        # Case 3
    "nc_fail_before_committed",     # Case 4
    "cc_fail_after_commit",         # Case 5
    "cc_fail_after_done",           # Case 6
)


class FaultInjector:
    """Raises :class:`FaultInjected` the first time a registered site is hit."""

    def __init__(self, sites: Iterable[str] = ()) -> None:
        unknown = [site for site in sites if site not in FAULT_SITES]
        if unknown:
            raise ValueError(f"unknown fault sites: {unknown}")
        self._pending = set(sites)
        self.fired: List[str] = []

    def fire(self, site: str) -> None:
        if site in self._pending:
            self._pending.discard(site)
            self.fired.append(site)
            raise FaultInjected(site)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return bool(self._pending)


def serialize_plan(plan: RebalancePlan) -> Dict[str, Any]:
    """Encode a plan into a metadata-log payload (used for recovery)."""
    return {
        "assignments": [
            [bucket.prefix, bucket.depth, partition]
            for bucket, partition in sorted(plan.new_directory.assignments.items())
        ],
        "moves": [
            [
                move.bucket.prefix,
                move.bucket.depth,
                -1 if move.source_partition is None else move.source_partition,
                move.destination_partition,
            ]
            for move in plan.moves
        ],
    }


def deserialize_assignments(payload: Mapping[str, Any]) -> GlobalDirectory:
    assignments = {
        BucketId(prefix, depth): partition
        for prefix, depth, partition in payload.get("assignments", [])
    }
    return GlobalDirectory(assignments)


def deserialize_moves(payload: Mapping[str, Any]) -> List[BucketMove]:
    return [
        BucketMove(BucketId(prefix, depth), None if source < 0 else source, destination)
        for prefix, depth, source, destination in payload.get("moves", [])
    ]


@dataclass
class ConcurrentWriteLoad:
    """Concurrent writes applied while the rebalance's data movement runs."""

    rows: Sequence[Mapping[str, Any]] = ()
    #: Controlled write rate in records/second; 0 means "as provided".  Used
    #: only for reporting (Figure 7c plots rebalance time against this rate).
    write_rate_records_per_sec: float = 0.0


class RebalanceOperation:
    """One dataset's rebalance to a new set of partitions."""

    def __init__(
        self,
        cluster: "SimulatedCluster",
        dataset_name: str,
        target_partitions: Sequence[int],
        strategy_name: str = "DynaHash",
        plan: Optional[RebalancePlan] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.cluster = cluster
        self.dataset_name = dataset_name
        self.runtime: "DatasetRuntime" = cluster.dataset(dataset_name)
        if self.runtime.routing_mode != "directory":
            raise RebalanceError(
                "RebalanceOperation requires directory routing; the global-hashing "
                "baseline reimplements its own movement in strategies.py"
            )
        self.target_partitions = list(target_partitions)
        self.strategy_name = strategy_name
        self.faults = fault_injector or FaultInjector()
        self.rebalance_id = cluster.next_rebalance_id()
        self.plan: Optional[RebalancePlan] = plan
        self.old_nodes = cluster.num_nodes

    def _emit(self, name: str, **payload: Any) -> None:
        """Emit a lifecycle event on the cluster's bus."""
        self.cluster.events.emit(
            name,
            dataset=self.dataset_name,
            rebalance_id=self.rebalance_id,
            **payload,
        )

    # ------------------------------------------------------------ utilities

    def _partition_nodes(self) -> Dict[int, str]:
        nodes: Dict[int, str] = {}
        for pid in set(self.target_partitions) | set(self.runtime.partitions.keys()):
            nodes[pid] = self.cluster.node_of_partition(pid).node_id
        return nodes

    def _target_node_count(self) -> int:
        return len({self._partition_nodes()[pid] for pid in self.target_partitions})

    # -------------------------------------------------------------- phases

    def run(self, concurrent: Optional[ConcurrentWriteLoad] = None) -> RebalanceReport:
        """Execute the full rebalance; returns a committed or aborted report.

        This is :meth:`run_steps` drained in place.

        Raises :class:`FaultInjected` when an injected fault models a crash
        that the running operation cannot resolve (the recovery manager must
        then be invoked, exactly like a restarted CC/NC would).
        """
        return drain(self.run_steps(concurrent))

    def run_steps(
        self, concurrent: Optional[ConcurrentWriteLoad] = None
    ) -> Generator[SimSegment, None, RebalanceReport]:
        """The protocol as a generator — its one implementation.

        Each ``yield`` hands a :class:`~repro.sim.SimSegment` back to the
        consumer: the initialization cost, then one segment per bucket move
        (plus a trailing concurrent-write segment), then finalization.
        Protocol state mutates *between* yields, so a scheduler can interleave
        other actors — foreground reads, another dataset's movement — inside
        the data-movement window while the source partitions still serve the
        old directory.  The committed or aborted
        :class:`~repro.cluster.reports.RebalanceReport` is the generator's
        return value, with ``simulated_seconds`` equal to the sum of the
        yielded segments (so the metrics registry's overlap reconciliation at
        ``rebalance.complete`` is a no-op under a scheduler, and a drained run
        reports what a scheduled one does).
        """
        report = RebalanceReport(
            strategy=self.strategy_name,
            dataset=self.dataset_name,
            old_nodes=self.old_nodes,
            new_nodes=self._target_node_count(),
            committed=False,
            simulated_seconds=0.0,
        )
        self._emit("rebalance.dataset.start", strategy=self.strategy_name)
        try:
            init_seconds = self._initialization_phase(report)
            self._emit("rebalance.phase", phase="initialization", seconds=init_seconds)
            yield SimSegment("initialization", init_seconds)
            move_seconds = yield from self._data_movement_segments(report, concurrent)
            self._emit("rebalance.phase", phase="data_movement", seconds=move_seconds)
            final_seconds = self._finalization_phase(report)
            self._emit("rebalance.phase", phase="finalization", seconds=final_seconds)
            yield SimSegment("finalization", final_seconds)
        except RebalanceAborted as aborted:
            abort_seconds = self._abort(str(aborted))
            report.abort_reason = str(aborted)
            report.phase_seconds["abort"] = abort_seconds
            report.simulated_seconds = sum(report.phase_seconds.values())
            self._emit("rebalance.abort", reason=str(aborted))
            self._emit("rebalance.dataset.complete", committed=False, report=report)
            return report
        report.committed = True
        report.phase_seconds.update(
            initialization=init_seconds, data_movement=move_seconds, finalization=final_seconds
        )
        report.simulated_seconds = init_seconds + move_seconds + final_seconds
        self._emit("rebalance.dataset.complete", committed=True, report=report)
        return report

    # -- initialization ------------------------------------------------------

    def _initialization_phase(self, report: RebalanceReport) -> float:
        cost = self.cluster.cost
        cc = self.cluster.cc
        # Force the BEGIN record before anything else (Section V-D relies on
        # it to learn about in-flight rebalances after a full-cluster crash).
        self._begin_record = cc.metadata_wal.append(
            LogRecordType.REBALANCE_BEGIN,
            self.dataset_name,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )

        # Contact every NC for its latest local directory and disable splits.
        local_directories = {}
        for pid, partition in self.runtime.partitions.items():
            partition.primary.disable_splits()
            local_directories[pid] = partition.primary.directory
        refreshed = GlobalDirectory.from_local_directories(local_directories)
        self.runtime.global_directory = refreshed

        partition_nodes = self._partition_nodes()
        if self.plan is None:  # no caller-supplied plan: run Algorithm 2
            self.plan = compute_balanced_directory(
                refreshed, self.target_partitions, partition_nodes
            )
        report.buckets_moved = self.plan.moved_buckets

        # Flush the memory components of every moving bucket: the flush time
        # is the rebalance start time and the resulting components are the
        # immutable snapshot (Section V-A).
        flush_bytes_by_node: Dict[str, float] = {}
        for move in self.plan.moves:
            if move.source_partition is None:
                continue
            source = self.runtime.partitions[move.source_partition]
            bucket = source.primary.bucket(move.bucket)
            component = bucket.flush()
            if component is not None:
                node = partition_nodes[move.source_partition]
                flush_bytes_by_node[node] = flush_bytes_by_node.get(node, 0) + component.size_bytes

        # Update the serialized plan into the BEGIN record's payload (the CC
        # writes it as part of the metadata transaction).
        self._begin_record.payload.update(serialize_plan(self.plan))
        cc.metadata_wal.force()

        per_node_seconds = {
            node: cost.disk_write_time(num_bytes) for node, num_bytes in flush_bytes_by_node.items()
        }
        chaos = self.cluster.chaos
        if chaos is not None:
            per_node_seconds = dict(chaos.scale_node_seconds(per_node_seconds))
        rpc_seconds = cost.rpc_time(2 * max(1, self.cluster.num_nodes))
        return cost.slowest(per_node_seconds) + rpc_seconds

    # -- data movement -------------------------------------------------------

    def _data_movement_segments(
        self,
        report: RebalanceReport,
        concurrent: Optional[ConcurrentWriteLoad],
    ) -> Generator[SimSegment, None, float]:
        """The data-movement phase, bucket by bucket; returns its seconds.

        Concurrent writes are woven between the moves, one window of them
        after each, so the replicated records land while the movement is in
        flight, as they would online.
        Each ``"move"`` segment prices that bucket's scan + ship + load +
        index rebuild on the nodes it touched, and a trailing
        ``"concurrent_writes"`` segment prices the replication overhead.
        Chaos scaling applies per segment, so a straggler window that opens
        mid-movement only slows the buckets moved while it is active.
        """
        assert self.plan is not None
        cost = self.cluster.cost
        partition_nodes = self._partition_nodes()
        mover = DataMover(self.runtime, partition_nodes)
        replicator = LogReplicator(self.runtime, self.plan)
        work = mover.work
        chaos = self.cluster.chaos

        moves = list(self.plan.moves)
        # Open the log-replication channel for every moving bucket before any
        # data moves: concurrent writes may target a bucket whose scan has not
        # started yet, and their replicated records must not be lost.
        for move in moves:
            self.runtime.partitions[move.destination_partition].receive_bucket(move.bucket, [])
        concurrent_rows = list(concurrent.rows) if concurrent is not None else []
        writes_per_move = (
            max(1, len(concurrent_rows) // max(1, len(moves))) if concurrent_rows else 0
        )
        # Each window's writes land and report as one batch, or one by one
        # while an autopilot counts ops (see SimulatedCluster.autopilot).
        per_write = self.cluster.autopilot is not None

        # Per-move tracing feed: probed once per phase, so untraced runs pay
        # one cached dict hit for the whole movement loop.
        trace_moves = self.cluster.events.has_subscribers("rebalance.bucket_move")

        per_node_totals: Dict[str, float] = {}

        def charged(per_node: Dict[str, float]) -> float:
            """Chaos-scale one window's node seconds, fold them into the
            report totals, and return the slowest node's share."""
            if chaos is not None:
                per_node = dict(chaos.scale_node_seconds(per_node))
            for node, seconds in per_node.items():
                per_node_totals[node] = per_node_totals.get(node, 0.0) + seconds
            return cost.slowest(per_node)

        move_seconds = 0.0
        written = 0
        for index, move in enumerate(moves):
            self.faults.fire("nc_fail_before_prepare")
            moved = mover.move_bucket(move)
            if trace_moves:
                self._emit(
                    "rebalance.bucket_move",
                    bucket=move.bucket.label,
                    source=move.source_partition,
                    destination=move.destination_partition,
                    records=moved.records,
                    payload_bytes=moved.payload_bytes,
                )
            window = concurrent_rows[written : written + writes_per_move]
            written += len(window)
            self._concurrent_writes(replicator, window, per_write)
            per_node = self._bucket_node_seconds(move, moved, partition_nodes)
            segment = SimSegment(
                "move", charged(per_node) + cost.rpc_time(2), remaining=len(moves) - index - 1
            )
            move_seconds += segment.seconds
            yield segment
        self._concurrent_writes(replicator, concurrent_rows[written:], per_write)

        report.records_moved = work.records_moved
        report.bytes_scanned = work.scanned_bytes
        report.bytes_shipped = work.shipped_bytes
        report.bytes_loaded = work.loaded_bytes
        report.concurrent_writes_applied = replicator.stats.concurrent_writes
        report.replicated_log_records = replicator.stats.replicated_records

        # Trailing window: the CPU/network of applying the concurrent writes
        # (they contend with the movement on the same nodes).
        closing: Dict[str, float] = {}
        if replicator.stats.concurrent_writes:
            involved = sorted(
                {
                    partition_nodes[m.source_partition]
                    for m in moves
                    if m.source_partition is not None
                }
                | {partition_nodes[m.destination_partition] for m in moves}
            ) or sorted(set(partition_nodes.values()))
            parse_seconds = cost.parse_time(replicator.stats.concurrent_writes)
            for node in involved:
                closing[node] = closing.get(node, 0.0) + parse_seconds / max(1, len(involved))
            # Replication traffic shares the destination links.
            replication_network = cost.network_time(replicator.stats.replicated_bytes)
            received_nodes = sorted(work.received_bytes_by_node)
            for node in received_nodes:
                closing[node] = closing.get(node, 0.0) + replication_network / max(
                    1, len(received_nodes)
                )
        # The phase closes with one round trip to every node.
        closing_seconds = charged(closing) + cost.rpc_time(self.cluster.num_nodes)
        report.per_node_seconds = dict(per_node_totals)
        yield SimSegment("concurrent_writes", closing_seconds)
        return move_seconds + closing_seconds

    def _concurrent_writes(
        self, replicator: LogReplicator, rows: Sequence[Mapping[str, Any]], per_write: bool
    ) -> None:
        """Apply one window of concurrent writes through the replication
        channel and report them as one ``op.batch`` (one per write when
        ``per_write``).

        Each write's latency is what a client would observe mid-rehash: the
        write is parsed and applied at its source, then its log record
        crosses the network twice (ship + replication ack) before the extra
        destination round trip acknowledges it — which is why writes are
        slower while a rebalance is in flight (Figure 7c).  The latencies
        travel in arrival order, so the metrics registry's batch sink records
        exactly what one ``op.update`` per write would.
        """
        events = self.cluster.events
        publish = events.has_subscribers("op.batch")
        cost = self.cluster.cost
        parse_seconds = cost.parse_time(1)
        ack_seconds = cost.rpc_time(3)
        step = 1 if per_write else max(1, len(rows))
        for start in range(0, len(rows), step):
            sizes = replicator.write_many(rows[start : start + step])
            if not publish:
                continue
            events.emit(
                "op.batch",
                op="update",
                dataset=self.dataset_name,
                latencies=[
                    parse_seconds + cost.network_time(2 * size) + ack_seconds for size in sizes
                ],
                records_per_op=1,
                count=len(sizes),
                concurrent=True,
            )

    def _bucket_node_seconds(
        self, move: BucketMove, moved: MovedBucket, partition_nodes: Mapping[int, str]
    ) -> Dict[str, float]:
        """Per-bucket pricing: what one move cost the (at most two) nodes it touched."""
        cost = self.cluster.cost
        source = move.source_partition  # None for a bucket with no current home
        source_node = None if source is None else partition_nodes[source]
        destination_node = partition_nodes[move.destination_partition]
        per_node: Dict[str, float] = {}
        if source_node is not None:
            per_node[source_node] = cost.disk_read_time(moved.scanned_bytes)
        per_node[destination_node] = per_node.get(destination_node, 0.0) + (
            cost.disk_write_time(moved.payload_bytes) + cost.compare_time(moved.records)
        )
        if source_node is not None and source_node != destination_node:
            # The payload crosses the source's outbound and the destination's
            # inbound link; a same-node move never touches the network.
            per_node[source_node] += cost.network_time(moved.payload_bytes)
            per_node[destination_node] += cost.network_time(moved.payload_bytes)
        return per_node

    # -- finalization ---------------------------------------------------------

    def _finalization_phase(self, report: RebalanceReport) -> float:
        assert self.plan is not None
        cost = self.cluster.cost
        cc = self.cluster.cc
        partition_nodes = self._partition_nodes()

        # Prepare phase: block the dataset, wait for log replication to drain
        # and for every NC to flush its rebalance memory components.
        self.runtime.blocked = True
        for partition in self.runtime.partitions.values():
            partition.block()
        prepare_flush_by_node: Dict[str, float] = {}
        self.faults.fire("cc_fail_before_commit")
        for pid, partition in self.runtime.partitions.items():
            self.faults.fire("nc_fail_after_prepare")
            flushed = partition.prepare_rebalance()
            node = partition_nodes[pid]
            prepare_flush_by_node[node] = prepare_flush_by_node.get(node, 0) + flushed

        prepare_seconds_by_node = {
            node: cost.disk_write_time(b) for node, b in prepare_flush_by_node.items()
        }
        chaos = self.cluster.chaos
        if chaos is not None:
            prepare_seconds_by_node = dict(chaos.scale_node_seconds(prepare_seconds_by_node))
        blocked_seconds = cost.slowest(prepare_seconds_by_node) + cost.rpc_time(
            2 * max(1, self.cluster.num_nodes)
        )

        # Commit point: force the COMMIT record.
        cc.metadata_wal.append(
            LogRecordType.REBALANCE_COMMIT,
            self.dataset_name,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        self._emit("rebalance.commit", buckets_moved=report.buckets_moved)

        self.faults.fire("nc_fail_before_committed")
        self.faults.fire("cc_fail_after_commit")

        # Commit tasks at every NC (all idempotent).
        self.apply_commit_tasks()

        # The dataset is unblocked before the DONE record: DONE only means the
        # operation can be forgotten.
        report.blocked_seconds = blocked_seconds
        cc.metadata_wal.append(
            LogRecordType.REBALANCE_DONE,
            self.dataset_name,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        self.faults.fire("cc_fail_after_done")
        return blocked_seconds + cost.rpc_time(2 * max(1, self.cluster.num_nodes))

    # -- commit/abort tasks (also used by recovery) ---------------------------

    def apply_commit_tasks(self) -> None:
        """Install received buckets, clean up moved buckets, swap the directory."""
        assert self.plan is not None
        apply_commit_to_runtime(self.runtime, self.plan.new_directory, self.plan.moves)

    def _abort(self, reason: str) -> float:
        cost = self.cluster.cost
        apply_abort_to_runtime(self.runtime)
        self.cluster.cc.metadata_wal.append(
            LogRecordType.REBALANCE_ABORT,
            self.dataset_name,
            {"rebalance_id": self.rebalance_id, "reason": reason},
            force=True,
        )
        self.cluster.cc.metadata_wal.append(
            LogRecordType.REBALANCE_DONE,
            self.dataset_name,
            {"rebalance_id": self.rebalance_id},
            force=True,
        )
        return cost.rpc_time(2 * max(1, self.cluster.num_nodes))


def apply_commit_to_runtime(
    runtime: "DatasetRuntime", new_directory: GlobalDirectory, moves: Sequence[BucketMove]
) -> None:
    """The NC/CC commit tasks, shared between the live path and recovery.

    Every step is idempotent: installing with nothing pending, cleaning up an
    already-removed bucket, and re-assigning the directory are all no-ops the
    second time.
    """
    for partition in runtime.partitions.values():
        partition.install_received_buckets()
    for move in moves:
        if move.source_partition is None:
            continue
        partition = runtime.partitions.get(move.source_partition)
        if partition is not None:
            partition.cleanup_moved_bucket(move.bucket)
    runtime.global_directory = new_directory.copy()
    for partition in runtime.partitions.values():
        partition.unblock()
        partition.primary.enable_splits()
    runtime.blocked = False


def apply_abort_to_runtime(runtime: "DatasetRuntime") -> None:
    """The NC abort/cleanup tasks, shared between the live path and recovery."""
    for partition in runtime.partitions.values():
        partition.drop_received_buckets()
        partition.unblock()
        partition.primary.enable_splits()
    runtime.blocked = False
