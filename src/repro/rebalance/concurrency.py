"""Concurrency control for online rebalancing (Section V-A).

Writes that arrive while a rebalance is running are split by the rebalance
start time:

* writes *before* the start time are captured by the immutable bucket snapshot
  (the initialization-phase flush), and
* writes *after* the start time are applied normally at the source partition
  **and** their log records are replicated to the destination partition, which
  applies them to the invisible received bucket.

:class:`LogReplicator` implements the second half: it is the write path used
by data feeds while a rebalance is in flight.  It also counts the replicated
records and bytes so the operation can charge their network/CPU cost and so
Figure 7c (rebalance time vs. concurrent write rate) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from ..common.hashutil import hash_key
from ..hashing.bucket_id import BucketId
from ..lsm.entry import Entry, estimate_value_size
from .plan import BucketMove, RebalancePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime


@dataclass
class ReplicationStats:
    """Counters of concurrent-write replication during one rebalance."""

    concurrent_writes: int = 0
    replicated_records: int = 0
    replicated_bytes: int = 0
    #: Replicated bytes broken down by (source node, destination node).
    bytes_by_route: Dict[str, int] = field(default_factory=dict)


class LogReplicator:
    """Applies concurrent writes at the source and replicates moving buckets'."""

    def __init__(
        self,
        runtime: "DatasetRuntime",
        plan: RebalancePlan,
        partition_nodes: Mapping[int, str],
    ) -> None:
        self.runtime = runtime
        self.plan = plan
        self.partition_nodes = dict(partition_nodes)
        self.stats = ReplicationStats()
        #: bucket -> move, for buckets that are being relocated.
        self._moving: Dict[BucketId, BucketMove] = {move.bucket: move for move in plan.moves}
        self._seqnum = 0

    def _next_seqnum(self) -> int:
        self._seqnum += 1
        return self._seqnum

    def moving_bucket_of(self, key: Any) -> Optional[BucketMove]:
        """The move affecting ``key``'s bucket, if any."""
        bucket, _partition = self.plan.old_directory.lookup_key(key)
        return self._moving.get(bucket)

    def write(self, row: Mapping[str, Any]) -> int:
        """Apply one concurrent insert during the rebalance; returns its size.

        The write is routed with the *old* directory (feeds hold an immutable
        copy, Section III), applied at its current partition, and — when its
        bucket is moving — replicated to the destination's pending bucket.
        The key is extracted and hashed, and the row copied and sized, once:
        the source partition's stored copy is what gets replicated, and the
        returned byte size is what the caller prices the write with.
        """
        key = self.runtime.spec.primary_key_of(row)
        hashed = hash_key(key)
        bucket, source_partition = self.plan.old_directory.lookup_hash(hashed)
        record = self.runtime.partitions[source_partition].insert(
            row, primary_key=key, hashed=hashed
        )
        size = estimate_value_size(record)
        self.stats.concurrent_writes += 1
        move = self._moving.get(bucket)
        if move is None:
            return size
        entry = Entry(key=key, value=record, seqnum=self._next_seqnum())
        destination = self.runtime.partitions[move.destination_partition]
        destination.apply_replicated_write(move.bucket, entry, hashed)
        self.stats.replicated_records += 1
        self.stats.replicated_bytes += size
        route = (
            f"{self.partition_nodes[source_partition]}->"
            f"{self.partition_nodes[move.destination_partition]}"
        )
        self.stats.bytes_by_route[route] = self.stats.bytes_by_route.get(route, 0) + size
        return size

    def delete(self, key: Any) -> None:
        """Apply one concurrent delete during the rebalance (tombstone path)."""
        hashed = hash_key(key)
        bucket, source_partition = self.plan.old_directory.lookup_hash(hashed)
        self.runtime.partitions[source_partition].delete(key, hashed=hashed)
        self.stats.concurrent_writes += 1
        move = self._moving.get(bucket)
        if move is None:
            return
        entry = Entry(key=key, value=None, seqnum=self._next_seqnum(), tombstone=True)
        self.runtime.partitions[move.destination_partition].apply_replicated_write(
            move.bucket, entry, hashed
        )
        self.stats.replicated_records += 1
