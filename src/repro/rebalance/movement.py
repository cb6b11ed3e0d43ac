"""The data movement phase (Section V-B).

For every bucket that changes partitions, the source partition scans the
bucket's immutable snapshot (its disk components after the initialization
flush), the records are shipped to the destination, and the destination
bulk-loads them into a *pending received* bucket plus new invisible component
lists for each secondary index.  Secondary index entries are rebuilt at the
destination from the shipped records — the source never reads its secondary
indexes.

The module also accounts the physical work so the operation can convert it
into per-node simulated time.
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
    """Physical work of moving buckets, broken down by partition and node."""

    #: Bytes read from each source partition's disk.
    scanned_bytes_by_partition: Dict[int, int] = field(default_factory=dict)
    #: Bytes sent out of each source node / into each destination node.
    shipped_bytes_by_node: Dict[str, int] = field(default_factory=dict)
    received_bytes_by_node: Dict[str, int] = field(default_factory=dict)
    #: Bytes written at each destination partition (primary plus secondary).
    loaded_bytes_by_partition: Dict[int, int] = field(default_factory=dict)
    records_moved: int = 0
    buckets_moved: int = 0

    @property
    def total_scanned_bytes(self) -> int:
        return sum(self.scanned_bytes_by_partition.values())

    @property
    def total_shipped_bytes(self) -> int:
        return sum(self.shipped_bytes_by_node.values())

    @property
    def total_loaded_bytes(self) -> int:
        return sum(self.loaded_bytes_by_partition.values())

    def add_scan(self, partition_id: int, num_bytes: int) -> None:
        self.scanned_bytes_by_partition[partition_id] = (
            self.scanned_bytes_by_partition.get(partition_id, 0) + num_bytes
        )

    def add_shipment(self, source_node: str, destination_node: str, num_bytes: int) -> None:
        if source_node != destination_node:
            self.shipped_bytes_by_node[source_node] = (
                self.shipped_bytes_by_node.get(source_node, 0) + num_bytes
            )
            self.received_bytes_by_node[destination_node] = (
                self.received_bytes_by_node.get(destination_node, 0) + num_bytes
            )

    def add_load(self, partition_id: int, num_bytes: int) -> None:
        self.loaded_bytes_by_partition[partition_id] = (
            self.loaded_bytes_by_partition.get(partition_id, 0) + num_bytes
        )


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
        entries, hashed = source.scan_bucket_snapshot(snapshot)
        payload_bytes = sum(entry.size_bytes for entry in entries)
        scanned_bytes = sum(
            getattr(component, "referenced_bytes", component.size_bytes)
            for component in snapshot
        )
        destination.receive_bucket(move.bucket, entries, hashed)

        source_node = self.partition_nodes[move.source_partition]
        destination_node = self.partition_nodes[move.destination_partition]
        self.work.add_scan(move.source_partition, scanned_bytes)
        self.work.add_shipment(source_node, destination_node, payload_bytes)
        # The destination writes the primary bucket plus rebuilt secondary
        # entries; approximate the secondary write volume from what the
        # destination actually buffered (its received lists).
        self.work.add_load(move.destination_partition, payload_bytes)
        self.work.records_moved += len(entries)
        self.work.buckets_moved += 1

        source.release_bucket_snapshot(snapshot)
        return MovedBucket(len(entries), scanned_bytes, payload_bytes)
