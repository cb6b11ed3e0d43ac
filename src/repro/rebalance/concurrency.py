"""Concurrency control for online rebalancing (Section V-A).

Writes that arrive while a rebalance is running are split by the rebalance
start time:

* writes *before* the start time are captured by the immutable bucket snapshot
  (the initialization-phase flush), and
* writes *after* the start time are applied normally at the source partition
  **and** their log records are replicated to the destination partition, which
  applies them to the invisible received bucket.

:class:`LogReplicator` implements the second half: it is the write path used
by data feeds while a rebalance is in flight, one move window of writes at a
time.  Where the paper ships log records, it forwards the source's stored
row itself as an entry; there is no NC data log (see :mod:`repro.lsm.wal`).
It also counts the replicated records and bytes so the operation can
charge their network/CPU cost and so Figure 7c (rebalance time vs.
concurrent write rate) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..common.hashutil import hash_key
from ..hashing.bucket_id import BucketId
from ..lsm.entry import Entry
from .plan import BucketMove, RebalancePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime


@dataclass
class ReplicationStats:
    """Counters of concurrent-write replication during one rebalance."""

    concurrent_writes: int = 0
    replicated_records: int = 0
    replicated_bytes: int = 0


class LogReplicator:
    """Applies concurrent writes at the source and replicates moving buckets'."""

    def __init__(self, runtime: "DatasetRuntime", plan: RebalancePlan) -> None:
        self.runtime = runtime
        self.plan = plan
        self.stats = ReplicationStats()
        #: bucket -> move, for buckets that are being relocated.
        self._moving: Dict[BucketId, BucketMove] = {move.bucket: move for move in plan.moves}
        self._seqnum = 0

    def _next_seqnum(self) -> int:
        self._seqnum += 1
        return self._seqnum

    def write_many(self, rows: Sequence[Mapping[str, Any]]) -> List[int]:
        """Apply a window of concurrent inserts; returns each row's size, in
        arrival order.

        Each row is routed with the *old* directory (feeds hold an immutable
        copy, Section III): its key is extracted and hashed once.  Each
        source partition's slice of the window lands through
        :meth:`~repro.cluster.partition.StoragePartition.insert_many`, which
        copies and sizes every row once; then every row whose bucket is
        moving is replicated, in arrival order, to the destination's pending
        bucket as the source's stored copy.  The returned sizes are what the
        caller prices the writes with.  The state is the one a row-at-a-time
        loop leaves: partitions are independent, each keeps its rows' order,
        and replicated records take their sequence numbers in arrival order.
        Only a node log shared by two source partitions interleaves their
        records differently, as it does for a feed batch.
        """
        primary_key_of = self.runtime.spec.primary_key_of
        lookup_hash = self.plan.old_directory.lookup_hash
        moving = self._moving
        #: source partition -> its slice of the window, as ``insert_many`` takes it.
        grouped: Dict[int, List[Tuple[Any, int, Mapping[str, Any]]]] = {}
        #: per row: its source partition, its position in that slice, its move.
        placed: List[Tuple[int, int, Optional[BucketMove]]] = []
        for row in rows:
            key = primary_key_of(row)
            hashed = hash_key(key)
            bucket, source = lookup_hash(hashed)
            group = grouped.get(source)
            if group is None:
                group = grouped[source] = []
            placed.append((source, len(group), moving.get(bucket)))
            group.append((key, hashed, row))
        partitions = self.runtime.partitions
        landed = {
            source: partitions[source].insert_many(group) for source, group in grouped.items()
        }
        stats = self.stats
        stats.concurrent_writes += len(placed)
        sizes: List[int] = []
        for source, position, move in placed:
            stored, row_sizes = landed[source]
            size = row_sizes[position]
            sizes.append(size)
            if move is None:
                continue
            key, hashed, _ = grouped[source][position]
            entry = Entry(key=key, value=stored[position], seqnum=self._next_seqnum())
            partitions[move.destination_partition].apply_replicated_write(
                move.bucket, entry, hashed
            )
            stats.replicated_records += 1
            stats.replicated_bytes += size
        return sizes
