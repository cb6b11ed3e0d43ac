"""Cluster observations: the frozen input every autopilot policy decides on.

A :class:`ClusterObservation` is captured from a live
:class:`~repro.api.database.Database` session right before each policy
evaluation.  It is deliberately a *value* — frozen, hashable fields only — so
two runs with the same seed capture identical observation sequences and
therefore make identical decisions (the autopilot determinism contract), and
so tests can compare observations directly.

Everything here is derived from state that is itself deterministic: the
metrics registry's simulated clock and rebalance phase, and the cluster's
per-node storage accounting.  Observations are not written to recordings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database


def balance_ratio(values: "Sequence[int]") -> float:
    """max/mean over ``values`` (1.0 = perfectly balanced or no data).

    The one definition of "balance" shared by observations and what-if
    projections, so policies always compare like with like.
    """
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 1.0
    return max(values) / mean


@dataclass(frozen=True)
class ClusterObservation:
    """What the autopilot sees: per-node load, balance and capacity."""

    #: The metrics clock at capture time (simulated seconds).
    simulated_seconds: float
    num_nodes: int
    total_bytes: int
    max_node_bytes: int
    #: Per-node byte skew, max/mean (1.0 = perfectly balanced).
    node_balance_ratio: float
    #: Whether a rebalance is currently in flight (registry phase).
    in_rebalance: bool

    @classmethod
    def capture(cls, db: "Database") -> "ClusterObservation":
        """Snapshot the session's per-node storage and rebalance phase."""
        node_bytes = list(db.cluster.storage_per_node().values())
        metrics = db.metrics
        return cls(
            simulated_seconds=metrics.clock.now,
            num_nodes=db.cluster.num_nodes,
            total_bytes=sum(node_bytes),
            max_node_bytes=max(node_bytes, default=0),
            node_balance_ratio=balance_ratio(node_bytes),
            in_rebalance=metrics.in_rebalance,
        )

    # ------------------------------------------------------------ conveniences

    def utilization(self, node_capacity_bytes: int) -> float:
        """Peak node utilization against a per-node capacity budget."""
        if node_capacity_bytes <= 0:
            raise ValueError("node_capacity_bytes must be positive")
        return self.max_node_bytes / node_capacity_bytes

    def mean_utilization(self, node_capacity_bytes: int) -> float:
        """Mean node utilization against a per-node capacity budget."""
        if node_capacity_bytes <= 0:
            raise ValueError("node_capacity_bytes must be positive")
        mean = self.total_bytes / self.num_nodes if self.num_nodes else 0.0
        return mean / node_capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterObservation(t={self.simulated_seconds:.3f}s, "
            f"nodes={self.num_nodes}, bytes={self.total_bytes}, "
            f"balance={self.node_balance_ratio:.2f})"
        )

