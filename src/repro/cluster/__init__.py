"""The AsterixDB-style shared-nothing cluster simulator.

* :class:`SimulatedCluster` — the public facade: one CC, N NCs with several
  storage partitions each, dataset creation, feed ingestion, lookups, and
  strategy-driven rebalancing.
* :class:`StoragePartition` — one dataset partition (bucketed primary index,
  primary-key index, secondary indexes) including the NC-side rebalance
  mechanics.
* :class:`CostModel` — converts physical work into simulated seconds with
  slowest-node semantics.
* :class:`DataFeed` — AsterixDB-style ingestion jobs with an immutable routing
  snapshot.
"""

from .controller import ClusterController, DatasetRuntime, SimulatedCluster
from .cost_model import CostModel, TimedPhase, WorkBreakdown
from .dataset import DatasetSpec, SecondaryIndexSpec
from .feed import DataFeed, RoutingSnapshot
from .node import NodeController
from .partition import PendingReceivedBucket, StoragePartition
from .reports import ClusterRebalanceReport, IngestReport, QueryReport, RebalanceReport

__all__ = [
    "ClusterController",
    "ClusterRebalanceReport",
    "CostModel",
    "DataFeed",
    "DatasetRuntime",
    "DatasetSpec",
    "IngestReport",
    "NodeController",
    "PendingReceivedBucket",
    "QueryReport",
    "RebalanceReport",
    "RoutingSnapshot",
    "SecondaryIndexSpec",
    "SimulatedCluster",
    "StoragePartition",
    "TimedPhase",
    "WorkBreakdown",
]
