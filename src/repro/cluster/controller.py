"""The Cluster Controller and the top-level simulated cluster.

:class:`SimulatedCluster` is the public facade of the reproduction: it plays
the role of an AsterixDB cluster (one CC, N NCs with 4 partitions each) and
exposes dataset creation, feed ingestion, the partitions the query engine
scans, and cluster resizing as a protocol generator (which delegates to a
rebalancing strategy from :mod:`repro.rebalance.strategies`).

The CC state mirrors Section II-C / V: per-dataset metadata, the global
directory of every bucketed dataset, and the metadata WAL whose forced
BEGIN/COMMIT/DONE records drive rebalance recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence

from ..common.clock import LamportClock
from ..common.config import BucketingConfig, ClusterConfig
from ..common.events import EventBus
from ..common.errors import (
    ClusterError,
    ConfigError,
    DatasetExistsError,
    UnknownDatasetError,
    UnknownNodeError,
)
from ..common.hashutil import hash_key
from ..hashing.bucket_id import ROOT_BUCKET, BucketId
from ..hashing.extendible import GlobalDirectory
from ..lsm.wal import WriteAheadLog
from .cost_model import CostModel
from .dataset import DatasetSpec, SecondaryIndexSpec
from .feed import DataFeed
from .reports import ClusterRebalanceReport
from .node import NodeController
from .partition import StoragePartition
from .routing import RoutingSnapshot, route_hashes


@dataclass
class DatasetRuntime:
    """The CC's live state for one dataset."""

    spec: DatasetSpec
    bucketing: BucketingConfig
    #: bucket -> partition map; None for modulo routing (the Hashing baseline).
    global_directory: Optional[GlobalDirectory] = None
    #: partition id -> partition object (the single source of truth).
    partitions: Dict[int, StoragePartition] = field(default_factory=dict)
    #: Set during rebalance finalization; feeds and queries check it.
    blocked: bool = False

    @property
    def routing_mode(self) -> str:
        """How the dataset routes: ``"directory"`` (StaticHash / DynaHash)
        or, without a global directory, ``"modulo"`` (the Hashing baseline)."""
        return "modulo" if self.global_directory is None else "directory"

    def routing_snapshot(self) -> RoutingSnapshot:
        """Immutable routing copy taken by feeds and queries (Section III)."""
        return RoutingSnapshot(self.global_directory, len(self.partitions))

    def partitions_of_hashes(self, hashes: Sequence[int]) -> List[int]:
        """Route a run of key hashes in one pass through the *live* directory
        (hash modulo partitions without one), as a :meth:`routing_snapshot`
        routes on its copy.  Point reads and a delete's live count route
        through the current state anyway, skipping the directory copy."""
        return route_hashes(self.global_directory, len(self.partitions), hashes)

    def partition_of_key(self, key: Any, hashed: Optional[int] = None) -> int:
        """Route one key: a one-hash :meth:`partitions_of_hashes`.  ``hashed``
        is ``hash_key(key)`` when the caller already has it."""
        if hashed is None:
            hashed = hash_key(key)
        return self.partitions_of_hashes((hashed,))[0]

    @property
    def total_size_bytes(self) -> int:
        return sum(partition.size_bytes for partition in self.partitions.values())

    def record_count(self) -> int:
        return sum(partition.record_count() for partition in self.partitions.values())


class ClusterController:
    """CC-side metadata: dataset runtimes and the metadata log."""

    def __init__(self) -> None:
        self.metadata_wal = WriteAheadLog()
        self.lamport = LamportClock()
        self.datasets: Dict[str, DatasetRuntime] = {}

    def dataset(self, name: str) -> DatasetRuntime:
        try:
            return self.datasets[name]
        except KeyError:
            raise UnknownDatasetError(f"dataset {name!r} does not exist") from None

    def register_dataset(self, runtime: DatasetRuntime) -> None:
        if runtime.spec.name in self.datasets:
            raise DatasetExistsError(f"dataset {runtime.spec.name!r} already exists")
        self.datasets[runtime.spec.name] = runtime

    def drop_dataset(self, name: str) -> None:
        self.datasets.pop(name, None)


class SimulatedCluster:
    """An AsterixDB-style shared-nothing cluster, simulated.

    Parameters
    ----------
    config:
        Cluster topology, LSM, bucketing, and cost-model configuration.  When
        ``config.strategy`` names a registered strategy and no ``strategy``
        argument is given, that name is resolved through the strategy
        registry.
    strategy:
        A rebalancing strategy object (see :mod:`repro.rebalance.strategies`)
        or a registered strategy name (``"dynahash"``, ``"static"``,
        ``"consistent"``, ``"hashing"``, ...) controlling both the initial
        dataset layout and how the cluster rebalances when it is resized.
        ``None`` defaults to DynaHash-style directory routing; resizing then
        requires passing a strategy later via :attr:`strategy`.
    workload_scale:
        Multiplier applied to all work quantities by the cost model, letting
        small benchmark datasets report paper-scale simulated durations.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        strategy: Optional[object] = None,
        workload_scale: float = 1.0,
    ) -> None:
        self.config = config or ClusterConfig()
        if strategy is None and self.config.strategy is not None:
            strategy = self.config.strategy
        if isinstance(strategy, str):
            from ..rebalance.strategies import strategy_by_name

            strategy = strategy_by_name(strategy)
        self.strategy = strategy
        self.events = EventBus()
        #: Optional per-bucket heat sink (a ``repro.trace.BucketHeat``),
        #: installed by a :class:`~repro.trace.TimelineRecorder` while a
        #: tracing session is attached.  Hot paths guard every use with a
        #: single ``is not None`` probe, the heat counterpart of
        #: ``EventBus.has_subscribers`` — untraced runs pay one attribute
        #: load per verb.  Typed loosely because the trace layer sits above
        #: this package.
        self.heat: Optional[Any] = None
        #: Optional fault-injection engine (a ``repro.chaos.ChaosEngine``),
        #: installed by :meth:`repro.api.Database.enable_chaos` when a
        #: scenario declares a ``[chaos]`` section.  Same pay-for-use bargain
        #: as :attr:`heat`: hot paths probe ``is not None`` once, so runs
        #: without chaos stay bit-identical to builds that predate it.
        self.chaos: Optional[Any] = None
        #: The autopilot engine attached to the session over this cluster
        #: (installed by :meth:`repro.api.Database.autopilot`).  While one is
        #: attached a rebalance applies and reports its concurrent writes one
        #: at a time, so the engine's every-N-ops check cadence lands where it
        #: would on single-op traffic (the workload driver's rule for reads).
        self.autopilot: Optional[Any] = None
        self.cost = CostModel(self.config.cost, workload_scale=workload_scale)
        self.cc = ClusterController()
        self.nodes: List[NodeController] = []
        self._next_rebalance_id = 1
        for _ in range(self.config.num_nodes):
            self._append_node()

    # ------------------------------------------------------------- topology

    @property
    def partitions_per_node(self) -> int:
        return self.config.partitions_per_node

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_partitions(self) -> int:
        return self.num_nodes * self.partitions_per_node

    def partition_ids(self) -> List[int]:
        return [pid for node in self.nodes for pid in node.partition_ids]

    def node_of_partition(self, partition_id: int) -> NodeController:
        index = partition_id // self.partitions_per_node
        if index >= len(self.nodes):
            raise UnknownNodeError(f"partition {partition_id} belongs to no current node")
        return self.nodes[index]

    def node(self, node_id: str) -> NodeController:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise UnknownNodeError(f"unknown node {node_id!r}")

    def _append_node(self) -> NodeController:
        index = len(self.nodes)
        ppn = self.partitions_per_node
        node = NodeController(
            node_id=f"nc{index}",
            partition_ids=list(range(index * ppn, (index + 1) * ppn)),
        )
        self.nodes.append(node)
        return node

    # The two methods below are used by rebalancing strategies: nodes are
    # provisioned *before* data moves onto them and decommissioned *after*
    # data has moved away.

    def provision_nodes(self, target_nodes: int) -> List[NodeController]:
        """Add nodes (with empty dataset partitions) up to ``target_nodes``."""
        if target_nodes < self.num_nodes:
            raise ClusterError("provision_nodes cannot shrink the cluster")
        new_nodes = []
        while self.num_nodes < target_nodes:
            node = self._append_node()
            new_nodes.append(node)
            for runtime in self.cc.datasets.values():
                for pid in node.partition_ids:
                    partition = self._make_partition(runtime, pid, node, initial_buckets=[])
                    runtime.partitions[pid] = partition
                    node.add_partition(partition)
            self.events.emit("node.provision", node=node.node_id, nodes=self.num_nodes)
        return new_nodes

    def decommission_nodes(self, target_nodes: int) -> List[NodeController]:
        """Remove the highest-numbered nodes down to ``target_nodes``.

        The caller (a rebalancing strategy) must already have moved all data
        off the removed nodes; any partitions still holding data trigger an
        error so bugs do not silently drop records.
        """
        if target_nodes > self.num_nodes:
            raise ClusterError("decommission_nodes cannot grow the cluster")
        if target_nodes < 1:
            raise ClusterError("cannot decommission every node")
        removed = []
        while self.num_nodes > target_nodes:
            node = self.nodes.pop()
            removed.append(node)
            for runtime in self.cc.datasets.values():
                for pid in node.partition_ids:
                    partition = runtime.partitions.pop(pid, None)
                    if partition is not None and partition.record_count() > 0:
                        raise ClusterError(
                            f"partition {pid} on {node.node_id} still holds "
                            f"{partition.record_count()} records; move them before decommissioning"
                        )
                node.drop_dataset(runtime.spec.name)
            self.events.emit("node.decommission", node=node.node_id, nodes=self.num_nodes)
        return removed

    # -------------------------------------------------------------- datasets

    def _resolve_bucketing(self) -> BucketingConfig:
        if self.strategy is not None and hasattr(self.strategy, "bucketing_config"):
            return self.strategy.bucketing_config(self.config.bucketing, self.total_partitions)
        return self.config.bucketing

    def _resolve_routing_mode(self) -> str:
        if self.strategy is not None and hasattr(self.strategy, "routing_mode"):
            return self.strategy.routing_mode
        return "directory"

    def _initial_directory(self, bucketing: BucketingConfig) -> GlobalDirectory:
        if self.strategy is not None and hasattr(self.strategy, "initial_directory"):
            return self.strategy.initial_directory(self.total_partitions, bucketing)
        return GlobalDirectory.initial(
            self.total_partitions, bucketing.initial_buckets_per_partition
        )

    def _make_partition(
        self,
        runtime: DatasetRuntime,
        partition_id: int,
        node: NodeController,
        initial_buckets: Sequence[BucketId],
    ) -> StoragePartition:
        return StoragePartition(
            dataset=runtime.spec,
            partition_id=partition_id,
            node_id=node.node_id,
            initial_buckets=initial_buckets,
            lsm_config=self.config.lsm,
            bucketing_config=runtime.bucketing,
        )

    def create_dataset(
        self,
        name: str,
        primary_key: "str | Sequence[str]",
        secondary_indexes: Sequence[SecondaryIndexSpec] = (),
    ) -> DatasetRuntime:
        """Create a dataset partitioned across every current node."""
        spec = DatasetSpec.create(name, primary_key, secondary_indexes)
        return self.create_dataset_from_spec(spec)

    def create_dataset_from_spec(self, spec: DatasetSpec) -> DatasetRuntime:
        routing_mode = self._resolve_routing_mode()
        bucketing = self._resolve_bucketing()
        runtime = DatasetRuntime(spec=spec, bucketing=bucketing)
        if routing_mode == "directory":
            runtime.global_directory = self._initial_directory(bucketing)
        for node in self.nodes:
            for pid in node.partition_ids:
                if routing_mode == "directory":
                    initial = runtime.global_directory.buckets_of_partition(pid)
                else:
                    initial = [ROOT_BUCKET]
                partition = self._make_partition(runtime, pid, node, initial)
                runtime.partitions[pid] = partition
                node.add_partition(partition)
        self.cc.register_dataset(runtime)
        self.events.emit(
            "dataset.create",
            dataset=spec.name,
            routing=routing_mode,
            partitions=len(runtime.partitions),
        )
        return runtime

    def dataset(self, name: str) -> DatasetRuntime:
        return self.cc.dataset(name)

    def dataset_names(self) -> List[str]:
        return sorted(self.cc.datasets.keys())

    def drop_dataset(self, name: str) -> None:
        runtime = self.cc.dataset(name)
        for node in self.nodes:
            node.drop_dataset(name)
        runtime.partitions.clear()
        self.cc.drop_dataset(name)
        self.events.emit("dataset.drop", dataset=name)

    # ------------------------------------------------------------- ingestion

    def feed(self, dataset_name: str, batch_size: int = 2000) -> DataFeed:
        """Open a data feed against the dataset's current routing state."""
        return DataFeed(self, dataset_name, batch_size=batch_size)

    # ------------------------------------------------------------- rebalance

    def next_rebalance_id(self) -> int:
        rid = self._next_rebalance_id
        self._next_rebalance_id += 1
        return rid

    def rebalance_to_steps(
        self,
        target_nodes: int,
        concurrent_rows: Optional[Mapping[str, Any]] = None,
        fault_injector: Optional[object] = None,
    ) -> "Generator[Any, None, ClusterRebalanceReport]":
        """Resize the cluster to ``target_nodes`` as a protocol generator.

        Emits ``rebalance.start``, yields every :class:`~repro.sim.SimSegment`
        the strategy's ``rebalance_cluster_steps`` produces — so a consuming
        actor can interleave foreground work inside the movement windows —
        and closes with ``rebalance.complete`` (``rebalance.error`` when the
        strategy raised).
        """
        if target_nodes < 1:
            raise ConfigError("target_nodes must be at least 1")
        if self.strategy is None:
            raise ClusterError(
                "no rebalancing strategy configured; pass one to SimulatedCluster(strategy=...)"
            )
        self.events.emit(
            "rebalance.start",
            strategy=getattr(self.strategy, "name", type(self.strategy).__name__),
            old_nodes=self.num_nodes,
            target_nodes=target_nodes,
        )
        try:
            report = yield from self.strategy.rebalance_cluster_steps(
                self,
                target_nodes,
                concurrent_rows=concurrent_rows,
                fault_injector=fault_injector,
            )
        except Exception as error:
            self.events.emit(
                "rebalance.error", target_nodes=target_nodes, error=repr(error)
            )
            raise
        self.events.emit(
            "rebalance.complete",
            strategy=report.strategy,
            old_nodes=report.old_nodes,
            new_nodes=report.new_nodes,
            committed=report.committed,
            report=report,
        )
        return report

    # -------------------------------------------------------------- reporting

    def storage_per_node(self) -> Dict[str, int]:
        return {node.node_id: node.total_size_bytes() for node in self.nodes}

    def describe(self) -> Dict[str, Any]:
        """A structural snapshot used by examples and documentation."""
        return {
            "nodes": self.num_nodes,
            "partitions": self.total_partitions,
            "datasets": {
                name: {
                    "records": runtime.record_count(),
                    "routing": runtime.routing_mode,
                    "buckets": (
                        len(runtime.global_directory)
                        if runtime.global_directory is not None
                        else None
                    ),
                    "bytes": runtime.total_size_bytes,
                }
                for name, runtime in self.cc.datasets.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedCluster(nodes={self.num_nodes}, partitions={self.total_partitions}, "
            f"datasets={self.dataset_names()})"
        )
