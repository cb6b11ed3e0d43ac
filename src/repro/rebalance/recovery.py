"""Rebalance failure handling and recovery (Section V-D).

The outcome of a rebalance operation is decided solely by whether the CC
forced its COMMIT record: if it did, the rebalance is committed and every NC
must (re-)apply the commit tasks; otherwise it is aborted and every NC must
clean up its received data.  Both task sets are idempotent, so the recovery
manager can simply re-issue them regardless of how far the crashed run got —
which is exactly how the six cases of Section V-D collapse into two actions.

The manager reads only *durable* metadata log records (what survived the
crash) and finishes every rebalance that has a BEGIN but no DONE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from ..lsm.wal import LogRecord, LogRecordType
from .operation import (
    apply_abort_to_runtime,
    apply_commit_to_runtime,
    deserialize_assignments,
    deserialize_moves,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import SimulatedCluster


@dataclass
class PendingRebalance:
    """State of one rebalance reconstructed from the durable metadata log."""

    rebalance_id: int
    dataset: str
    begin: LogRecord
    commit: Optional[LogRecord] = None
    abort: Optional[LogRecord] = None
    done: Optional[LogRecord] = None

    @property
    def is_finished(self) -> bool:
        return self.done is not None

    @property
    def is_committed(self) -> bool:
        return self.commit is not None


@dataclass
class RecoveryOutcome:
    """What the recovery manager did for one pending rebalance."""

    rebalance_id: int
    dataset: str
    action: str  # "committed", "aborted", or "already-done"


class RebalanceRecoveryManager:
    """Drives CC/NC recovery for in-flight rebalance operations."""

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self.cluster = cluster

    # ------------------------------------------------------------- analysis

    def pending_rebalances(self) -> List[PendingRebalance]:
        """Reconstruct rebalance states from the durable metadata log."""
        states: Dict[int, PendingRebalance] = {}
        for record in self.cluster.cc.metadata_wal.records(durable_only=True):
            rid = record.payload.get("rebalance_id")
            if rid is None:
                continue
            if record.record_type == LogRecordType.REBALANCE_BEGIN:
                states[rid] = PendingRebalance(
                    rebalance_id=rid, dataset=record.dataset, begin=record
                )
            elif rid in states:
                if record.record_type == LogRecordType.REBALANCE_COMMIT:
                    states[rid].commit = record
                elif record.record_type == LogRecordType.REBALANCE_ABORT:
                    states[rid].abort = record
                elif record.record_type == LogRecordType.REBALANCE_DONE:
                    states[rid].done = record
        return [state for state in states.values()]

    # -------------------------------------------------------------- recovery

    def recover(self) -> List[RecoveryOutcome]:
        """Finish every unfinished rebalance; returns what was done for each.

        * BEGIN + COMMIT, no DONE  → re-issue the commit tasks (Cases 4, 5).
        * BEGIN, no COMMIT, no DONE → abort and clean up (Cases 1, 2-abort, 3).
        * DONE present              → nothing to do (Case 6).
        """
        outcomes: List[RecoveryOutcome] = []
        for pending in self.pending_rebalances():
            if pending.is_finished:
                outcomes.append(
                    RecoveryOutcome(pending.rebalance_id, pending.dataset, "already-done")
                )
                continue
            runtime = self.cluster.dataset(pending.dataset)
            if pending.is_committed:
                new_directory = deserialize_assignments(pending.begin.payload)
                moves = deserialize_moves(pending.begin.payload)
                apply_commit_to_runtime(runtime, new_directory, moves)
                action = "committed"
            else:
                apply_abort_to_runtime(runtime)
                self.cluster.cc.metadata_wal.append(
                    LogRecordType.REBALANCE_ABORT,
                    pending.dataset,
                    {"rebalance_id": pending.rebalance_id, "reason": "recovered after failure"},
                    force=True,
                )
                action = "aborted"
            self.cluster.cc.metadata_wal.append(
                LogRecordType.REBALANCE_DONE,
                pending.dataset,
                {"rebalance_id": pending.rebalance_id},
                force=True,
            )
            outcomes.append(RecoveryOutcome(pending.rebalance_id, pending.dataset, action))
        return outcomes

    def recover_node(self, node_id: str) -> List[RecoveryOutcome]:
        """An NC recovering always contacts the CC (Section V-D); because the
        NC-side tasks are idempotent and CC-driven here, node recovery simply
        triggers the same reconciliation as CC recovery."""
        node = self.cluster.node(node_id)
        node.recover()
        return self.recover()
