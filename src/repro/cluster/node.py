"""Node Controllers.

An AsterixDB cluster has one Cluster Controller and multiple Node Controllers;
each NC hosts several storage partitions (4 in the paper's experiments) and a
transaction log (Section II-C).  The simulator's :class:`NodeController` owns
the partition objects of every dataset and a simulated clock used to
accumulate the node's busy time.  It keeps no transaction log: nothing the
simulator models reads one (see :mod:`repro.lsm.wal`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..common.clock import LamportClock, SimulatedClock
from ..common.errors import UnknownDatasetError
from .partition import StoragePartition


@dataclass
class NodeController:
    """One NC: an id, its partition ids and its clock."""

    node_id: str
    #: Global ids of the storage partitions hosted by this node.
    partition_ids: List[int]
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    lamport: LamportClock = field(default_factory=LamportClock)
    #: dataset name -> {partition id -> partition object}
    partitions: Dict[str, Dict[int, StoragePartition]] = field(default_factory=dict)
    #: Set when the node is simulated as crashed (rebalance failure cases).
    failed: bool = False

    # ------------------------------------------------------------ partitions

    def add_partition(self, partition: StoragePartition) -> None:
        dataset_partitions = self.partitions.setdefault(partition.dataset.name, {})
        dataset_partitions[partition.partition_id] = partition

    def dataset_partitions(self, dataset: str) -> List[StoragePartition]:
        try:
            return [self.partitions[dataset][pid] for pid in sorted(self.partitions[dataset])]
        except KeyError:
            raise UnknownDatasetError(
                f"node {self.node_id} has no partitions of dataset {dataset!r}"
            ) from None

    def partition(self, dataset: str, partition_id: int) -> StoragePartition:
        try:
            return self.partitions[dataset][partition_id]
        except KeyError:
            raise UnknownDatasetError(
                f"node {self.node_id} has no partition {partition_id} of dataset {dataset!r}"
            ) from None

    def drop_dataset(self, dataset: str) -> None:
        self.partitions.pop(dataset, None)

    def drop_partition(self, dataset: str, partition_id: int) -> None:
        dataset_partitions = self.partitions.get(dataset)
        if dataset_partitions:
            dataset_partitions.pop(partition_id, None)

    # ---------------------------------------------------------------- sizing

    def total_size_bytes(self) -> int:
        return sum(
            partition.size_bytes
            for dataset_partitions in self.partitions.values()
            for partition in dataset_partitions.values()
        )

    # ---------------------------------------------------------------- faults

    def fail(self) -> None:
        """Simulate a node crash; rebalance recovery runs when it comes back."""
        self.failed = True

    def recover(self) -> None:
        """The node comes back up; rebalance recovery contacts the CC next."""
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NodeController({self.node_id}, partitions={self.partition_ids})"
