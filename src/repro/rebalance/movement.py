"""The data movement phase (Section V-B).

For every bucket that changes partitions, the source partition scans the
bucket's immutable snapshot (its disk components after the initialization
flush), the records are shipped to the destination, and the destination
bulk-loads them into a *pending received* bucket plus new invisible component
lists for each secondary index.  Secondary index entries are rebuilt at the
destination from the shipped records — the source never reads its secondary
indexes.  The loaded component keeps the source's Bloom filter when the scan
found one already built over exactly the moved keys.

The module also accounts the physical work: per move, which the operation
prices in per-node simulated time, and in total, which its report carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, TYPE_CHECKING

from ..cluster.partition import StoragePartition
from .plan import BucketMove

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime


@dataclass
class MovementWork:
    """Physical work of moving buckets: the totals a report carries."""

    #: Bytes read off the source partitions' disks.
    scanned_bytes: int = 0
    #: Bytes sent across the network (same-node moves ship nothing).
    shipped_bytes: int = 0
    #: Bytes received by each destination node; its links carry the
    #: replicated concurrent writes too.
    received_bytes_by_node: Dict[str, int] = field(default_factory=dict)
    #: Bytes written at the destination partitions (primary plus secondary).
    loaded_bytes: int = 0
    records_moved: int = 0
    buckets_moved: int = 0


class MovedBucket(NamedTuple):
    """What moving one bucket physically did — the input of per-bucket pricing."""

    records: int
    #: Bytes read off the source partition's disk (the bucket's snapshot).
    scanned_bytes: int
    #: Bytes of records shipped to, and bulk-loaded at, the destination.
    payload_bytes: int


class DataMover:
    """Executes the data movement phase for one dataset."""

    def __init__(self, runtime: "DatasetRuntime", partition_nodes: Mapping[int, str]) -> None:
        self.runtime = runtime
        self.partition_nodes = dict(partition_nodes)
        self.work = MovementWork()

    def partition(self, partition_id: int) -> StoragePartition:
        return self.runtime.partitions[partition_id]

    def move_bucket(self, move: BucketMove) -> MovedBucket:
        """Move one bucket's snapshot; returns what the move amounted to."""
        destination = self.partition(move.destination_partition)
        if move.source_partition is None:
            # A bucket with no current home (can only happen if a partition
            # disappeared without a clean decommission); nothing to scan.
            destination.receive_bucket(move.bucket, [])
            self.work.buckets_moved += 1
            return MovedBucket(0, 0, 0)
        source = self.partition(move.source_partition)
        snapshot = source.snapshot_bucket(move.bucket)
        entries, hashed, bloom = source.scan_bucket_snapshot(snapshot)
        payload_bytes = sum(entry.size_bytes for entry in entries)
        scanned_bytes = sum(
            getattr(component, "referenced_bytes", component.size_bytes)
            for component in snapshot
        )
        destination.receive_bucket(move.bucket, entries, hashed, bloom)

        work = self.work
        work.scanned_bytes += scanned_bytes
        destination_node = self.partition_nodes[move.destination_partition]
        if self.partition_nodes[move.source_partition] != destination_node:
            work.shipped_bytes += payload_bytes
            received = work.received_bytes_by_node
            received[destination_node] = received.get(destination_node, 0) + payload_bytes
        # The destination writes the primary bucket plus rebuilt secondary
        # entries; approximate the secondary write volume from what the
        # destination actually buffered (its received lists).
        work.loaded_bytes += payload_bytes
        work.records_moved += len(entries)
        work.buckets_moved += 1

        source.release_bucket_snapshot(snapshot)
        return MovedBucket(len(entries), scanned_bytes, payload_bytes)
