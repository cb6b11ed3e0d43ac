"""Consistent hashing with virtual nodes.

The paper classifies consistent hashing as the third local rebalancing scheme
(Section II-A): the hashed key space is a ring, each (virtual) node serves the
arc between its predecessor and itself, and adding a node only moves the keys
of the arcs it takes over.  DynaHash prefers dynamic bucketing because
AsterixDB has a primary-secondary architecture, but the ring is implemented
here as a comparison baseline for the rebalance-cost ablations and to make the
Section II-A taxonomy executable.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List

from ..common.errors import ClusterError
from ..common.hashutil import hash64, hash_key


class ConsistentHashRing:
    """A hash ring mapping keys to node ids, with virtual nodes (Cassandra-style)."""

    def __init__(self, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        self.virtual_nodes = virtual_nodes
        #: Sorted ring positions and the parallel list of owning node ids.
        self._positions: List[int] = []
        self._owners: List[Any] = []
        self._nodes: Dict[Any, List[int]] = {}

    # ------------------------------------------------------------- topology

    def _token(self, node_id: Any, replica: int) -> int:
        return hash64(hash_key((str(node_id), replica)))

    def add_node(self, node_id: Any) -> None:
        """Add a node (and its virtual nodes) to the ring."""
        if node_id in self._nodes:
            raise ClusterError(f"node {node_id!r} is already on the ring")
        tokens = []
        for replica in range(self.virtual_nodes):
            token = self._token(node_id, replica)
            index = bisect.bisect_left(self._positions, token)
            self._positions.insert(index, token)
            self._owners.insert(index, node_id)
            tokens.append(token)
        self._nodes[node_id] = tokens

    @property
    def nodes(self) -> List[Any]:
        return sorted(self._nodes.keys(), key=str)

    def __len__(self) -> int:
        return len(self._nodes)

    # -------------------------------------------------------------- routing

    def node_for_hash(self, hash_value: int) -> Any:
        """Return the node owning ``hash_value`` (the first token clockwise)."""
        if not self._positions:
            raise ClusterError("the ring has no nodes")
        index = bisect.bisect_right(self._positions, hash_value)
        if index == len(self._positions):
            index = 0
        return self._owners[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConsistentHashRing(nodes={len(self._nodes)}, vnodes={self.virtual_nodes})"
