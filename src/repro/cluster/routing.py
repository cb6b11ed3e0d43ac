"""Routing runs of key hashes to storage partitions: through the global
directory (StaticHash, DynaHash; Section III) or, for a dataset without one
(the Hashing baseline), by hash modulo the partition count.  Feeds and
queries route on a :class:`RoutingSnapshot`, point reads and a delete's count
of live records on the live directory; both go through :func:`route_hashes`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..hashing.extendible import GlobalDirectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .partition import StoragePartition


def route_hashes(
    directory: Optional[GlobalDirectory], num_partitions: int, hashes: Sequence[int]
) -> List[int]:
    """The partition each key hash routes to, in order, in one pass: through
    ``directory``, or hash modulo ``num_partitions`` when it is ``None``."""
    if directory is not None:
        return directory.partitions_of_hashes(hashes)
    return [hashed % num_partitions for hashed in hashes]


def touched_partitions(
    partitions: Mapping[int, "StoragePartition"], owners: Sequence[int]
) -> List[Tuple["StoragePartition", Optional[List[int]]]]:
    """The partitions a non-empty run routed to ``owners`` (a partition id
    per row) touches: one ``(partition, positions)`` per owner, in
    first-touch order, each ``positions`` ascending (``None`` when one
    partition takes the whole run).  Every touched partition is checked
    for a block first, so a run that reaches a blocked one is refused
    before its caller reads, lands or heats anything."""
    first = owners[0]
    if owners.count(first) == len(owners):
        partition = partitions[first]
        if partition.blocked:
            partition._check_not_blocked()
        return [(partition, None)]
    groups: Dict[int, List[int]] = {}
    for position, owner in enumerate(owners):
        if owner in groups:
            groups[owner].append(position)
        else:
            groups[owner] = [position]
    touched: List[Tuple["StoragePartition", Optional[List[int]]]] = [
        (partitions[owner], positions) for owner, positions in groups.items()
    ]
    for partition, _ in touched:
        if partition.blocked:
            partition._check_not_blocked()
    return touched


class RoutingSnapshot:
    """An immutable routing function captured when a feed or query starts:
    a copy of the global ``directory``, or hash modulo ``num_partitions``
    when there is none."""

    def __init__(
        self, directory: Optional[GlobalDirectory] = None, num_partitions: int = 0
    ) -> None:
        if directory is None and num_partitions < 1:
            raise ValueError("modulo routing needs a positive partition count")
        self.directory = directory.copy() if directory is not None else None
        self.num_partitions = num_partitions

    def partitions_of_hashes(self, hashes: Sequence[int]) -> List[int]:
        """The partition each already-hashed key routes to, in order, in one
        pass (the feed hashes each row once and shares the hash with the
        storage layer)."""
        return route_hashes(self.directory, self.num_partitions, hashes)
