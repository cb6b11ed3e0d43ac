"""Rebalancing strategies: Hashing, StaticHash, DynaHash, ConsistentHash.

A strategy bundles the two decisions the paper's evaluation varies:

* how a dataset is laid out when it is created (routing mode, bucket count,
  whether buckets may split), and
* how the cluster rebalances when it is resized.

``DynaHash`` and ``StaticHash`` use the directory-based rebalance operation of
:mod:`repro.rebalance.operation`; ``Hashing`` reimplements AsterixDB's global
rebalancing baseline (recreate the dataset hash-partitioned over the new node
set, moving nearly every record); ``ConsistentHash`` is the Section II-A
taxonomy baseline, assigning a fixed bucket set to partitions through a hash
ring so that resizes move only the buckets whose ring owner changed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..common.config import BucketingConfig
from ..common.errors import ConfigError
from ..common.hashutil import hash64, hash_key
from ..hashing.bucket_id import ROOT_BUCKET
from ..hashing.consistent import ConsistentHashRing
from ..hashing.extendible import GlobalDirectory
from ..hashing.static_bucket import static_buckets, static_directory
from ..cluster.partition import StoragePartition
from ..cluster.reports import ClusterRebalanceReport, RebalanceReport
from ..sim import SimSegment
from .operation import ConcurrentWriteLoad, FaultInjector, RebalanceOperation
from .plan import RebalancePlan, plan_from_directories

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import SimulatedCluster


class RebalancingStrategy:
    """Base class: directory routing with the Section V rebalance operation."""

    name = "base"
    routing_mode = "directory"

    # -- dataset layout -------------------------------------------------------

    def bucketing_config(self, base: BucketingConfig, total_partitions: int) -> BucketingConfig:
        return base

    def initial_directory(
        self, total_partitions: int, bucketing: BucketingConfig
    ) -> GlobalDirectory:
        return GlobalDirectory.initial(total_partitions, bucketing.initial_buckets_per_partition)

    # -- rebalancing ----------------------------------------------------------

    def plan_for(
        self, cluster: "SimulatedCluster", dataset_name: str, target_partitions: Sequence[int]
    ) -> Optional[RebalancePlan]:
        """Strategies may precompute the new directory (ConsistentHash does);
        returning ``None`` lets the operation run Algorithm 2."""
        return None

    def rebalance_cluster_steps(
        self,
        cluster: "SimulatedCluster",
        target_nodes: int,
        concurrent_rows: Optional[Mapping[str, Sequence[Mapping[str, Any]]]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> "Generator[SimSegment, None, ClusterRebalanceReport]":
        """Resize the cluster to ``target_nodes`` as a protocol generator.

        The single override point for how a strategy rebalances: the cluster
        calls it both under an event scheduler and, drained, for
        run-to-completion resizes.  The base implementation runs
        :meth:`~repro.rebalance.operation.RebalanceOperation.run_steps` per
        dataset.
        """
        old_nodes = cluster.num_nodes
        if target_nodes == old_nodes and not cluster.dataset_names():
            return ClusterRebalanceReport(self.name, old_nodes, target_nodes, 0.0)
        if target_nodes > old_nodes:
            cluster.provision_nodes(target_nodes)
        target_partitions = [
            pid
            for node in cluster.nodes[:target_nodes]
            for pid in node.partition_ids
        ]
        dataset_reports: List[RebalanceReport] = []
        all_committed = True
        for dataset_name in cluster.dataset_names():
            load = None
            if concurrent_rows and dataset_name in concurrent_rows:
                load = ConcurrentWriteLoad(rows=concurrent_rows[dataset_name])
            operation = RebalanceOperation(
                cluster,
                dataset_name,
                target_partitions,
                strategy_name=self.name,
                plan=self.plan_for(cluster, dataset_name, target_partitions),
                fault_injector=fault_injector or FaultInjector(),
            )
            report = yield from operation.run_steps(concurrent=load)
            dataset_reports.append(report)
            all_committed = all_committed and report.committed
        if target_nodes < old_nodes and all_committed:
            cluster.decommission_nodes(target_nodes)
        return ClusterRebalanceReport(
            strategy=self.name,
            old_nodes=old_nodes,
            new_nodes=cluster.num_nodes,
            simulated_seconds=sum(report.simulated_seconds for report in dataset_reports),
            dataset_reports=dataset_reports,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class DynaHashStrategy(RebalancingStrategy):
    """The paper's contribution: dynamic bucketing with extendible hashing.

    Buckets split when they exceed ``max_bucket_bytes`` (10 GB in the paper);
    rebalancing moves whole buckets using Algorithm 2.
    """

    name = "DynaHash"

    def __init__(self, max_bucket_bytes: Optional[int] = None, initial_buckets_per_partition: int = 1) -> None:
        self.max_bucket_bytes = max_bucket_bytes
        self.initial_buckets_per_partition = initial_buckets_per_partition

    def bucketing_config(self, base: BucketingConfig, total_partitions: int) -> BucketingConfig:
        config = replace(
            base,
            static=False,
            initial_buckets_per_partition=self.initial_buckets_per_partition,
        )
        if self.max_bucket_bytes is not None:
            config = replace(config, max_bucket_bytes=self.max_bucket_bytes)
        return config


def _static_bucketing(base: BucketingConfig, total_buckets: Optional[int]) -> BucketingConfig:
    """``base`` with splits off and, when given, ``total_buckets`` static buckets."""
    if total_buckets is None:
        return replace(base, static=True)
    return replace(base, static=True, static_total_buckets=total_buckets)


class StaticHashStrategy(RebalancingStrategy):
    """Static bucketing: a fixed number of buckets (256 in the paper), no splits.

    ``total_buckets=None`` keeps the cluster config's
    ``bucketing.static_total_buckets``; a number overrides it.
    """

    name = "StaticHash"

    def __init__(self, total_buckets: Optional[int] = None) -> None:
        if total_buckets is not None and total_buckets < 1:
            raise ConfigError("total_buckets must be at least 1")
        self.total_buckets = total_buckets

    def bucketing_config(self, base: BucketingConfig, total_partitions: int) -> BucketingConfig:
        return _static_bucketing(base, self.total_buckets)

    def initial_directory(
        self, total_partitions: int, bucketing: BucketingConfig
    ) -> GlobalDirectory:
        return static_directory(bucketing.static_total_buckets, total_partitions)


class ConsistentHashStrategy(RebalancingStrategy):
    """Consistent hashing over a fixed bucket set (buckets act as tokens).

    Buckets are assigned to partitions by hashing each bucket onto a ring of
    partition tokens; a resize rebuilds the ring over the target partitions
    and moves only the buckets whose owner changed.  This is the Section II-A
    consistent-hashing baseline expressed in DynaHash's bucket machinery so
    the same movement/commit code is exercised.  ``total_buckets=None`` keeps
    the cluster config's ``bucketing.static_total_buckets``.
    """

    name = "ConsistentHash"

    def __init__(self, total_buckets: Optional[int] = None, virtual_nodes: int = 16) -> None:
        self.total_buckets = total_buckets
        self.virtual_nodes = virtual_nodes

    def bucketing_config(self, base: BucketingConfig, total_partitions: int) -> BucketingConfig:
        return _static_bucketing(base, self.total_buckets)

    def _ring(self, partitions: Sequence[int]) -> ConsistentHashRing:
        ring = ConsistentHashRing(virtual_nodes=self.virtual_nodes)
        for pid in partitions:
            ring.add_node(pid)
        return ring

    def _assign(self, partitions: Sequence[int], total_buckets: int) -> GlobalDirectory:
        ring = self._ring(partitions)
        assignments = {
            bucket: ring.node_for_hash(hash64(bucket.prefix + 0x9E37))
            for bucket in static_buckets(total_buckets)
        }
        return GlobalDirectory(assignments)

    def initial_directory(
        self, total_partitions: int, bucketing: BucketingConfig
    ) -> GlobalDirectory:
        return self._assign(list(range(total_partitions)), bucketing.static_total_buckets)

    def plan_for(
        self, cluster: "SimulatedCluster", dataset_name: str, target_partitions: Sequence[int]
    ) -> Optional[RebalancePlan]:
        runtime = cluster.dataset(dataset_name)
        new_directory = self._assign(
            list(target_partitions), runtime.bucketing.static_total_buckets
        )
        return plan_from_directories(runtime.global_directory, new_directory)


class GlobalHashingStrategy(RebalancingStrategy):
    """AsterixDB's existing global rebalancing with hash partitioning.

    Records are assigned to partition ``hash(K) mod P``; when the cluster is
    resized the dataset is recreated, hash-partitioned over the new node set,
    which moves nearly every record (Section II-C).  Reads stay available off
    the old copy while the new one is built, and the dataset's disk usage
    roughly doubles during the rebalance — both properties of the real
    baseline.
    """

    name = "Hashing"
    routing_mode = "modulo"

    def bucketing_config(self, base: BucketingConfig, total_partitions: int) -> BucketingConfig:
        # The baseline stores each partition as one traditional LSM-tree,
        # which is a single never-splitting root bucket in our storage layer.
        return replace(base, static=True, initial_buckets_per_partition=1)

    def rebalance_cluster_steps(
        self,
        cluster: "SimulatedCluster",
        target_nodes: int,
        concurrent_rows: Optional[Mapping[str, Sequence[Mapping[str, Any]]]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> "Generator[SimSegment, None, ClusterRebalanceReport]":
        """Rebuild every dataset offline, then yield the one window it took.

        The baseline recreates every dataset in one shot — there is no
        bucket-by-bucket protocol to slice, so consumers get a single
        ``offline_rebuild`` segment.
        """
        if fault_injector is not None and fault_injector:
            raise ConfigError(
                "the Hashing baseline rebuilds datasets offline and has no "
                "Section V protocol sites; fault injection requires a "
                "directory-routing strategy (dynahash/statichash/consistenthash)"
            )
        old_nodes = cluster.num_nodes
        if target_nodes > old_nodes:
            cluster.provision_nodes(target_nodes)
        target_node_objects = cluster.nodes[:target_nodes]
        target_partitions = [pid for node in target_node_objects for pid in node.partition_ids]
        dataset_reports: List[RebalanceReport] = []
        for dataset_name in cluster.dataset_names():
            rows = list(concurrent_rows.get(dataset_name, [])) if concurrent_rows else []
            dataset_reports.append(
                self._rebalance_dataset(cluster, dataset_name, target_partitions, rows)
            )
        if target_nodes < old_nodes:
            cluster.decommission_nodes(target_nodes)
        cluster_report = ClusterRebalanceReport(
            strategy=self.name,
            old_nodes=old_nodes,
            new_nodes=cluster.num_nodes,
            simulated_seconds=sum(report.simulated_seconds for report in dataset_reports),
            dataset_reports=dataset_reports,
        )
        yield SimSegment("offline_rebuild", cluster_report.simulated_seconds)
        return cluster_report

    def _rebalance_dataset(
        self,
        cluster: "SimulatedCluster",
        dataset_name: str,
        target_partitions: Sequence[int],
        concurrent_rows: Sequence[Mapping[str, Any]],
    ) -> RebalanceReport:
        cost = cluster.cost
        runtime = cluster.dataset(dataset_name)
        old_partitions = dict(runtime.partitions)
        num_new = len(target_partitions)
        report = RebalanceReport(
            strategy=self.name,
            dataset=dataset_name,
            old_nodes=cluster.num_nodes if not old_partitions else len(
                {cluster.node_of_partition(pid).node_id for pid in old_partitions}
            ),
            new_nodes=len({cluster.node_of_partition(pid).node_id for pid in target_partitions}),
            committed=False,
            simulated_seconds=0.0,
        )
        # Build the new (hash-partitioned) copy of the dataset.
        new_partitions: Dict[int, StoragePartition] = {}
        for pid in target_partitions:
            node = cluster.node_of_partition(pid)
            new_partitions[pid] = StoragePartition(
                dataset=runtime.spec,
                partition_id=pid,
                node_id=node.node_id,
                initial_buckets=[ROOT_BUCKET],
                lsm_config=cluster.config.lsm,
                bucketing_config=runtime.bucketing,
            )

        scanned_by_partition: Dict[int, int] = {}
        shipped_by_node: Dict[str, float] = {}
        received_by_node: Dict[str, float] = {}
        loaded_records_by_partition: Dict[int, int] = {}
        records_moved = 0
        cross_node_records = 0

        #: Each new partition's keys, hashes and rows, in arrival order: the
        #: columns ``insert_many`` takes.
        loads: Dict[int, Tuple[List[Any], List[int], List[Mapping[str, Any]]]] = {
            pid: ([], [], []) for pid in new_partitions
        }
        for old_pid, partition in old_partitions.items():
            old_node = cluster.node_of_partition(old_pid).node_id
            scanned_by_partition[old_pid] = partition.primary_size_bytes
            for entry in partition.scan_primary():
                key = entry.key
                hashed = hash_key(key)
                new_pid = target_partitions[hashed % num_new]
                keys, hashes, values = loads[new_pid]
                keys.append(key)
                hashes.append(hashed)
                values.append(entry.value)
                new_node = cluster.node_of_partition(new_pid).node_id
                loaded_records_by_partition[new_pid] = (
                    loaded_records_by_partition.get(new_pid, 0) + 1
                )
                records_moved += 1
                if new_node != old_node:
                    cross_node_records += 1
                    shipped_by_node[old_node] = shipped_by_node.get(old_node, 0) + entry.size_bytes
                    received_by_node[new_node] = received_by_node.get(new_node, 0) + entry.size_bytes

        # Concurrent writes land on the new copy as well (the baseline blocks
        # nothing in our model; it simply redoes them).
        primary_key_of = runtime.spec.primary_key_of
        for row in concurrent_rows:
            key = primary_key_of(row)
            hashed = hash_key(key)
            new_pid = target_partitions[hashed % num_new]
            keys, hashes, values = loads[new_pid]
            keys.append(key)
            hashes.append(hashed)
            values.append(row)
            loaded_records_by_partition[new_pid] = loaded_records_by_partition.get(new_pid, 0) + 1
            records_moved += 1
        # Nothing runs maintenance before each partition's forced pass, so
        # landing its rows as one batch leaves the state row-by-row would.
        for pid, partition in new_partitions.items():
            partition.insert_many(*loads[pid])
            partition.maintain(force_flush=True)
        # The destination work of global rebalancing goes through the regular
        # insertion path (every record parsed and indexed, then flushed and
        # merged) — that, plus rewriting nearly every record, is why the
        # paper's Hashing baseline is so expensive.
        destination_work = {
            pid: new_partitions[pid].stats_snapshot() for pid in new_partitions
        }

        # Swap the dataset over to the new copy and detach the old partitions.
        for old_pid, partition in old_partitions.items():
            node = cluster.node_of_partition(old_pid)
            node.drop_partition(dataset_name, old_pid)
        runtime.partitions.clear()
        for pid, partition in new_partitions.items():
            runtime.partitions[pid] = partition
            cluster.node_of_partition(pid).add_partition(partition)
        runtime.global_directory = None  # routes by hash modulo from now on

        # ---- cost roll-up (slowest node over scan, load, and network) ----
        per_node: Dict[str, float] = {}

        def add(node_id: str, seconds: float) -> None:
            per_node[node_id] = per_node.get(node_id, 0.0) + seconds

        for pid, num_bytes in scanned_by_partition.items():
            add(cluster.node_of_partition(pid).node_id, cost.disk_read_time(num_bytes))
        loaded_bytes_total = 0
        for pid, stats in destination_work.items():
            breakdown = cost.ingest_work(loaded_records_by_partition.get(pid, 0), stats)
            add(cluster.node_of_partition(pid).node_id, breakdown.total_sec)
            loaded_bytes_total += stats.total_disk_write_bytes
        for node_id, num_bytes in shipped_by_node.items():
            add(node_id, cost.network_time(num_bytes))
        for node_id, num_bytes in received_by_node.items():
            add(node_id, cost.network_time(num_bytes))
        # Repartitioning every record costs CPU on its source node.
        for pid in scanned_by_partition:
            add(
                cluster.node_of_partition(pid).node_id,
                cost.compare_time(records_moved / max(1, len(scanned_by_partition))),
            )

        report.committed = True
        report.records_moved = records_moved
        report.buckets_moved = len(old_partitions)
        report.bytes_scanned = sum(scanned_by_partition.values())
        report.bytes_shipped = int(sum(shipped_by_node.values()))
        report.bytes_loaded = loaded_bytes_total
        report.concurrent_writes_applied = len(concurrent_rows)
        chaos = getattr(cluster, "chaos", None)
        if chaos is not None:
            per_node = dict(chaos.scale_node_seconds(per_node))
        report.per_node_seconds = per_node
        report.simulated_seconds = cost.slowest(per_node) + cost.rpc_time(
            2 * max(1, cluster.num_nodes)
        )
        report.phase_seconds = {"data_movement": report.simulated_seconds}
        return report


#: canonical name -> strategy factory.
_STRATEGY_FACTORIES: Dict[str, Any] = {}
#: alias (lowercase) -> canonical name.
_STRATEGY_ALIASES: Dict[str, str] = {}


def register_strategy(name: str, factory: "Callable[..., Any]", aliases: Sequence[str] = ()) -> None:
    """Register a rebalancing strategy under ``name`` (plus ``aliases``).

    ``factory`` is any callable returning a strategy object (usually the
    strategy class itself); extra keyword arguments given to
    :func:`strategy_by_name` are forwarded to it.  Registration is
    case-insensitive and re-registering a name replaces the previous entry,
    which lets tests and downstream code swap in instrumented strategies.
    """
    if not name:
        raise ConfigError("strategy name must not be empty")
    canonical = name.lower()
    _STRATEGY_FACTORIES[canonical] = factory
    _STRATEGY_ALIASES[canonical] = canonical
    for alias in aliases:
        _STRATEGY_ALIASES[alias.lower()] = canonical


def available_strategies() -> List[str]:
    """Canonical names accepted by :func:`strategy_by_name`, sorted."""
    return sorted(_STRATEGY_FACTORIES)


def strategy_by_name(name: str, **kwargs: Any) -> RebalancingStrategy:
    """Resolve a registered strategy name (or alias) to a fresh instance.

    Keyword arguments are forwarded to the strategy factory, e.g.
    ``strategy_by_name("dynahash", max_bucket_bytes=64 * 1024)``.
    """
    normalized = str(name).strip().lower()
    canonical = _STRATEGY_ALIASES.get(normalized)
    if canonical is None:
        raise ConfigError(
            f"unknown rebalancing strategy {name!r}; "
            f"valid choices: {', '.join(available_strategies())} "
            f"(aliases: {', '.join(sorted(set(_STRATEGY_ALIASES) - set(_STRATEGY_FACTORIES)))})"
        )
    return _STRATEGY_FACTORIES[canonical](**kwargs)


register_strategy("dynahash", DynaHashStrategy, aliases=("dyna",))
register_strategy("statichash", StaticHashStrategy, aliases=("static",))
register_strategy(
    "hashing", GlobalHashingStrategy, aliases=("global", "globalhashing", "modulo")
)
register_strategy(
    "consistenthash", ConsistentHashStrategy, aliases=("consistent", "consistenthashing")
)
