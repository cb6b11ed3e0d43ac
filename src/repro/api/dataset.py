"""Typed dataset handles: the client-side verbs of the dataset API.

A :class:`Dataset` is a lightweight handle bound to a
:class:`~repro.api.database.Database` session and a dataset name.  It owns no
state of its own — every call re-resolves the live
:class:`~repro.cluster.controller.DatasetRuntime`, so a handle stays valid
across rebalances (which swap the routing directory and partition map under
it, exactly as AsterixDB dataset names do).

Every verb is *instrumented*: it emits an ``op.<verb>`` event on the session's
event bus carrying the call's simulated latency, which the session's
:class:`~repro.metrics.MetricsRegistry` turns into phase-tagged latency
histograms and throughput counters (see :mod:`repro.metrics`).  Latencies are
per *call* — a batched ``insert`` records the batch call's latency, a point
``get`` records one lookup's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..cluster.dataset import DatasetSpec
from ..cluster.reports import IngestReport
from ..common.errors import UnknownDatasetError
from ..common.hashutil import hash_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime
    from ..cluster.partition import StoragePartition
    from .database import Database


#: A run of reads travels the read path as a run (:meth:`Dataset._lookup_run`)
#: once it averages this many keys per partition; shorter runs go key by key.
#: Grouping pays only when each bucket tree the run touches answers several
#: keys in one probe: with one bucket per partition the run path is ahead
#: from about 4 keys per partition, with eight it only draws level near 32.
_RUN_KEYS_PER_PARTITION = 16


@dataclass
class DeleteReport:
    """Outcome of deleting a batch of keys from a dataset."""

    dataset: str
    keys_requested: int
    records_deleted: int
    #: Distinct requested keys that had no live record (a repeat counts once).
    keys_missing: int
    simulated_seconds: float
    per_partition_deletes: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"deleted {self.records_deleted}/{self.keys_requested} keys from "
            f"{self.dataset!r} in {self.simulated_seconds:.3f}s"
        )


class Dataset:
    """Handle for one dataset of an open :class:`Database` session."""

    def __init__(self, database: "Database", name: str) -> None:
        self.database = database
        self.name = name

    # -------------------------------------------------------------- plumbing

    def _runtime(self) -> "DatasetRuntime":
        self.database._check_open()
        return self.database.cluster.dataset(self.name)

    @property
    def spec(self) -> DatasetSpec:
        return self._runtime().spec

    @property
    def exists(self) -> bool:
        """Whether the dataset exists — a non-throwing probe, so it answers
        from the cluster metadata even on a closed session."""
        try:
            self.database.cluster.dataset(self.name)
            return True
        except UnknownDatasetError:
            return False

    def _emit_op(
        self, op: str, latency_seconds: float, records: int = 1, **extra: Any
    ) -> None:
        """Publish one instrumented-verb sample on the session's event bus.

        Skipped outright — payload construction included — when nothing
        subscribes to the op's event name (e.g. a session whose metrics
        registry was detached); ``has_subscribers`` is a cached dict probe.
        """
        events = self.database.events
        name = f"op.{op}"
        if not events.has_subscribers(name):
            return
        events.emit(
            name,
            dataset=self.name,
            latency_seconds=latency_seconds,
            records=records,
            **extra,
        )

    def _emit_op_batch(
        self, op: str, latencies: "List[float]", records_per_op: int = 1
    ) -> None:
        """Publish a batch of same-verb samples as one ``op.batch`` event."""
        if not latencies:
            return
        events = self.database.events
        if not events.has_subscribers("op.batch"):
            return
        events.emit(
            "op.batch",
            op=op,
            dataset=self.name,
            latencies=latencies,
            records_per_op=records_per_op,
            count=len(latencies),
        )

    # ------------------------------------------------------------ write path

    def insert(
        self, rows: Iterable[Mapping[str, Any]], batch_size: int = 2000
    ) -> IngestReport:
        """Insert rows through a data feed; returns the ingest report."""
        return self._ingest(rows, batch_size, op="insert")

    def upsert(
        self, rows: Iterable[Mapping[str, Any]], batch_size: int = 2000
    ) -> IngestReport:
        """Insert-or-replace rows by primary key.

        This shares :meth:`insert`'s feed path, which upserts: in the primary
        and primary-key indexes a newer entry shadows the older one at the
        same key, and on a dataset with secondary indexes the partition reads
        each key's old record first and writes antimatter for the secondary
        entries the new record does not rewrite (as a delete does), so the
        write leaves no stale secondary entry behind.  The separate verb
        keeps client intent explicit (and the two verbs are metered as
        distinct ``op.insert`` / ``op.update`` samples).
        """
        return self._ingest(rows, batch_size, op="update")

    def _ingest(
        self, rows: Iterable[Mapping[str, Any]], batch_size: int, op: str
    ) -> IngestReport:
        self._runtime()  # enforces the session/dataset checks
        report = self.database.cluster.feed(self.name, batch_size=batch_size).ingest(rows)
        self._emit_op(op, report.simulated_seconds, records=report.records)
        return report

    def upsert_each(self, rows: "Sequence[Mapping[str, Any]]") -> "List[IngestReport]":
        """Upsert rows one at a time, metered as a single batched event.

        Each row is ingested through its own single-row feed call — the same
        storage work, maintenance boundaries, and per-row simulated latency a
        loop of ``upsert([row], batch_size=1)`` pays — but the feed (and its
        routing snapshot) is built once, and the per-row latencies travel as
        one ``op.batch`` event instead of N ``op.update`` events.  This is
        the update path of the batched workload driver.
        """
        self._runtime()  # enforces the session/dataset checks
        if not rows:
            return []
        feed = self.database.cluster.feed(self.name, batch_size=1)
        reports: List[IngestReport] = []
        latencies: List[float] = []
        for row in rows:
            report = feed.ingest((row,))
            reports.append(report)
            latencies.append(report.simulated_seconds)
        self._emit_op_batch("update", latencies)
        return reports

    def delete(self, keys: "Iterable[Any] | Any") -> DeleteReport:
        """Delete records by primary key; accepts one key or an iterable.

        A tuple is one key on a dataset with a composite primary key (an
        iterable of tuples is many keys there); a string is always one key.
        Deletes land as tombstone rows on the write path: the call is hashed
        and routed once, every touched partition is checked for a block
        before anything lands (so a refused call deletes nothing), each
        touched partition finds the live records among its distinct keys
        with one ``lookup_many`` and then lands all its keys, in call order,
        with one ``StoragePartition.insert_many``.  Missing keys are counted
        but not an error (a tombstone is written either way), and a key
        repeated in one call is counted once in ``records_deleted`` and in
        ``keys_missing``.
        """
        runtime = self._runtime()
        if (
            isinstance(keys, (str, bytes))
            or not isinstance(keys, Iterable)
            or (isinstance(keys, tuple) and runtime.spec.has_composite_key)
        ):
            keys = [keys]
        else:
            keys = list(keys)
        per_partition: Dict[int, int] = {}
        distinct_keys = 0
        if keys:
            hashes = list(map(hash_key, keys))
            for partition, positions in self._route_run(runtime, hashes):
                if positions is None:
                    slice_keys, slice_hashes = keys, hashes
                else:
                    slice_keys = [keys[p] for p in positions]
                    slice_hashes = [hashes[p] for p in positions]
                distinct = dict(zip(slice_keys, slice_hashes))
                distinct_keys += len(distinct)
                found, _ = partition.lookup_many(list(distinct), list(distinct.values()))
                live = len(found) - found.count(None)
                if live:
                    per_partition[partition.partition_id] = live
                partition.insert_many(zip(slice_keys, slice_hashes, repeat(None)))
        for partition in runtime.partitions.values():
            partition.maintain()
        requested = len(keys)
        deleted = sum(per_partition.values())
        cost = self.database.cluster.cost
        simulated = cost.parse_time(requested) + cost.rpc_time(2)
        report = DeleteReport(
            dataset=self.name,
            keys_requested=requested,
            records_deleted=deleted,
            keys_missing=distinct_keys - deleted,
            simulated_seconds=simulated,
            per_partition_deletes=per_partition,
        )
        self.database.events.emit(
            "dataset.delete", dataset=self.name, keys=requested, deleted=deleted
        )
        self._emit_op("delete", simulated, records=requested, deleted=deleted)
        return report

    # ------------------------------------------------------------- read path

    def _probe_latency(self, opened: int) -> float:
        """Client-observed seconds of one point read whose probe opened
        ``opened`` disk components (before any chaos distortion)."""
        cost = self.database.cluster.cost
        return (
            cost.rpc_time(2)
            + cost.component_open_time(opened)
            # One page per component probed past the Bloom filters; charged
            # unscaled because a point read touches one page regardless of
            # what data scale the run represents.
            + (opened * self.database.config.lsm.page_bytes)
            / cost.config.disk_read_bytes_per_sec
        )

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        """Point lookup by primary key (routes via the current directory).

        The key is hashed once, here; routing, the heat hook and the storage
        probe all share that hash.  The emitted ``op.read`` latency charges
        the client/CC round trip plus the per-component open overhead and disk
        pages the probe actually touched (the count the partition reports for
        the one bucket tree it searched), so lookups get slower as a bucket
        accumulates unmerged components.
        """
        runtime = self._runtime()
        hashed = hash_key(key)
        record, opened = self._lookup_one(runtime, key, hashed)
        latency = self._probe_latency(opened)
        chaos = self.database.cluster.chaos
        if chaos is not None:
            # Burst windows stretch the client's service time; partition
            # windows add the retry path's miss/backoff penalty on top.
            latency = latency * chaos.client_factor() + chaos.routing_penalty(
                runtime, key, hashed
            )
        self._emit_op("read", latency, found=record is not None)
        return record

    def get_many(
        self, keys: "Sequence[Any]", hashes: "Optional[Sequence[int]]" = None
    ) -> "List[Optional[Dict[str, Any]]]":
        """Point-lookup a batch of primary keys, in order.

        The storage work, per-key cost accounting, and resulting telemetry
        are identical to looping :meth:`get` — each key's latency is computed
        from its own probe's component-open count — but a long run (16 keys
        or more per partition) travels the read path together: it is routed
        in one pass and every touched partition answers its keys in one
        :meth:`~repro.cluster.partition.StoragePartition.lookup_many`; a
        shorter run goes key by key.  Either way each distinct count is
        priced once, and the samples travel as a single ``op.batch`` event,
        which the metrics registry folds in with
        :meth:`~repro.metrics.MetricsRegistry.observe_op_batch`.  A run that
        touches a blocked partition raises before any partition is probed.
        The heat and chaos hooks see the keys in order.  This is the read
        path of the batched workload driver.

        The run is hashed once, here, and routing, the heat and chaos hooks
        and the storage probes share the hashes.  A caller that already
        holds them passes ``hashes``, one per key in key order, and nothing
        is hashed (the workload driver keeps its keys' hashes in a column).
        Each must equal ``hash_key(key)``; it is not checked, and a wrong
        one routes and probes its key where the key does not live.  A column
        of another length than ``keys`` raises :class:`ValueError` before any
        key is routed.
        """
        runtime = self._runtime()
        if hashes is not None and len(hashes) != len(keys):
            raise ValueError(f"{len(hashes)} hashes for {len(keys)} keys")
        if not keys:
            return []
        if hashes is None:
            hashes = list(map(hash_key, keys))
        if len(keys) == 1:
            record, count = self._lookup_one(runtime, keys[0], hashes[0])
            records, opened = [record], [count]
        elif len(keys) < _RUN_KEYS_PER_PARTITION * len(runtime.partitions):
            records, opened = self._lookup_each(runtime, keys, hashes)
        else:
            records, opened = self._lookup_run(runtime, keys, hashes)
        # opened -> latency: the charge is a pure function of the count, so
        # each distinct count is priced once.
        first = opened[0]
        if opened.count(first) == len(opened):
            latencies = [self._probe_latency(first)] * len(opened)
        else:
            distinct = set(opened)
            priced = dict(zip(distinct, map(self._probe_latency, distinct)))
            latencies = list(map(priced.__getitem__, opened))
        chaos = self.database.cluster.chaos
        if chaos is not None:
            latencies = [
                latency * chaos.client_factor() + chaos.routing_penalty(runtime, key, hashed)
                for key, hashed, latency in zip(keys, hashes, latencies)
            ]
        self._emit_op_batch("read", latencies)
        return records

    def _lookup_one(
        self, runtime: "DatasetRuntime", key: Any, hashed: int
    ) -> "Tuple[Optional[Dict[str, Any]], int]":
        """One key's record and the disk components its probe opened (the
        count of the one bucket tree it searched); routing, the heat hook
        and the storage probe share the key's hash ``hashed``."""
        heat = self.database.cluster.heat
        if heat is not None:
            heat.record_read(self.name, hashed)
        partition = runtime.partitions[runtime.partition_of_key(key, hashed)]
        if partition.blocked:
            partition._check_not_blocked()
        return partition.primary.lookup(key, hashed)

    def _lookup_each(
        self, runtime: "DatasetRuntime", keys: "Sequence[Any]", hashes: "Sequence[int]"
    ) -> "Tuple[List[Optional[Dict[str, Any]]], List[int]]":
        """:meth:`_lookup_run` key by key, for runs too short to repay its
        grouping: every key is routed, and its partition checked for a
        block, before any is probed."""
        heat = self.database.cluster.heat
        partitions = runtime.partitions
        # DatasetRuntime.partition_of_key, bound once per run: the live
        # directory's lookup_hash, or hash modulo partitions without one.
        directory = runtime.global_directory if runtime.routing_mode == "directory" else None
        probes = []
        for key, hashed in zip(keys, hashes):
            if heat is not None:
                heat.record_read(self.name, hashed)
            if directory is None:
                partition = partitions[hashed % len(partitions)]
            else:
                partition = partitions[directory.lookup_hash(hashed)[1]]
            if partition.blocked:
                partition._check_not_blocked()
            probes.append((partition.primary, key, hashed))
        records: List[Optional[Dict[str, Any]]] = []
        opened: List[int] = []
        for primary, key, hashed in probes:
            record, count = primary.lookup(key, hashed)
            records.append(record)
            opened.append(count)
        return records, opened

    def _lookup_run(
        self, runtime: "DatasetRuntime", keys: "Sequence[Any]", hashes: "Sequence[int]"
    ) -> "Tuple[List[Optional[Dict[str, Any]]], List[int]]":
        """Each key's record and component-open count, in key order: the
        run's hashes are seen by the heat hook and routed by
        :meth:`_route_run`, so every touched partition is checked for a
        block before any is probed."""
        heat = self.database.cluster.heat
        if heat is not None:
            for hashed in hashes:
                heat.record_read(self.name, hashed)
        touched = self._route_run(runtime, hashes)
        if touched[0][1] is None:  # one partition owns the run
            return touched[0][0].lookup_many(keys, hashes)
        records: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        opened = [0] * len(keys)
        for partition, positions in touched:
            found, counts = partition.lookup_many(
                [keys[p] for p in positions], [hashes[p] for p in positions]
            )
            for position, record, count in zip(positions, found, counts):
                records[position] = record
                opened[position] = count
        return records, opened

    @staticmethod
    def _route_run(
        runtime: "DatasetRuntime", hashes: "Sequence[int]"
    ) -> "List[Tuple[StoragePartition, Optional[List[int]]]]":
        """The partitions a non-empty run of key hashes reaches through the
        live directory (or hash modulo partitions without one), routed in
        one pass: one ``(partition, positions)`` per touched partition, in
        first-touch order, with ``positions`` ``None`` when one partition
        owns the whole run.  Every touched partition is checked for a block
        before this returns, so a refused run touches nothing."""
        partitions = runtime.partitions
        if runtime.routing_mode == "directory":
            owners = runtime.global_directory.partitions_of_hashes(hashes)
        else:
            owners = [hashed % len(partitions) for hashed in hashes]
        first = owners[0]
        if owners.count(first) == len(owners):
            touched = [(partitions[first], None)]
        else:
            groups: Dict[int, List[int]] = {}
            for position, owner in enumerate(owners):
                group = groups.get(owner)
                if group is None:
                    groups[owner] = [position]
                else:
                    group.append(position)
            touched = [(partitions[owner], positions) for owner, positions in groups.items()]
        for partition, _ in touched:
            if partition.blocked:
                partition._check_not_blocked()
        return touched

    def scan(
        self, low: Any = None, high: Any = None, ordered: bool = False
    ) -> Iterator[Dict[str, Any]]:
        """Iterate the dataset's records across every partition.

        ``ordered=True`` merge-sorts each partition's buckets by primary key
        (records still arrive partition by partition, as a cluster scan does).
        A fully consumed scan emits one ``op.scan`` sample whose latency
        covers the bytes it returned; an abandoned iterator emits nothing.
        """
        runtime = self._runtime()
        bytes_read = 0
        rows = 0
        for pid in sorted(runtime.partitions):
            for entry in runtime.partitions[pid].scan_primary(
                low=low, high=high, ordered=ordered
            ):
                bytes_read += entry.size_bytes
                rows += 1
                yield dict(entry.value)
        cost = self.database.cluster.cost
        latency = (
            cost.rpc_time(2)
            + cost.component_open_time(len(runtime.partitions))
            + cost.disk_read_time(bytes_read)
        )
        self._emit_op("scan", latency, records=rows)

    def count(self) -> int:
        """Number of live records (served from the partitions' key counts)."""
        return self._runtime().record_count()

    def __len__(self) -> int:
        return self.count()

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------ inspection

    def describe(self) -> Dict[str, Any]:
        """A structural snapshot of this dataset."""
        runtime = self._runtime()
        return {
            "name": self.name,
            "primary_key": list(runtime.spec.primary_key),
            "secondary_indexes": runtime.spec.index_names(),
            "routing": runtime.routing_mode,
            "records": runtime.record_count(),
            "bytes": runtime.total_size_bytes,
            "partitions": sorted(runtime.partitions),
            "buckets": (
                len(runtime.global_directory)
                if runtime.global_directory is not None
                else None
            ),
        }

    def drop(self) -> None:
        """Drop this dataset from the database."""
        self.database.drop_dataset(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dataset({self.name!r})"
