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
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from ..cluster.routing import touched_partitions
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
        copy, Section III): the window's keys are extracted and hashed once,
        a column pass each.  Every source partition the window touches is
        checked for a block before anything lands; then each one's slice of
        the window (its keys, hashes and rows, in arrival order) lands through
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
        if not rows:
            return []
        keys = list(map(self.runtime.spec.primary_key_of, rows))
        hashes = list(map(hash_key, keys))
        #: per row: its ``(bucket, source partition)`` under the old directory.
        routes = list(map(self.plan.old_directory.lookup_hash, hashes))
        partitions = self.runtime.partitions
        stored: List[Optional[Dict[str, Any]]] = [None] * len(rows)
        sizes = [0] * len(rows)
        for partition, positions in touched_partitions(partitions, [pid for _, pid in routes]):
            if positions is None:
                stored, sizes = partition.insert_many(keys, hashes, rows)
                continue
            columns = [list(map(column.__getitem__, positions)) for column in (keys, hashes, rows)]
            landed, landed_sizes = partition.insert_many(*columns)
            for position, record, size in zip(positions, landed, landed_sizes):
                stored[position] = record
                sizes[position] = size
        stats = self.stats
        stats.concurrent_writes += len(rows)
        moving = self._moving
        for position, (bucket, _) in enumerate(routes):
            move = moving.get(bucket)
            if move is None:
                continue
            entry = Entry(key=keys[position], value=stored[position], seqnum=self._next_seqnum())
            partitions[move.destination_partition].apply_replicated_write(
                move.bucket, entry, hashes[position]
            )
            stats.replicated_records += 1
            stats.replicated_bytes += sizes[position]
        return sizes
