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
from ..cluster.routing import touched_partitions
from ..cluster.reports import IngestReport
from ..common.errors import UnknownDatasetError
from ..common.hashutil import hash_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime
    from .database import Database


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
        Each key is hashed once; every touched partition is checked for a
        block before anything is read or lands (a refused call deletes
        nothing) and counts the live records among its distinct keys with
        one ``lookup_many``.  Then one :meth:`DataFeed.ingest` of the key and
        hash columns lands the keys as tombstone rows, in call order, and
        heats, sweeps and prices them as any write: the report's
        ``simulated_seconds`` is the feed's.  A missing key is counted, not
        an error; a key repeated in one call counts once in
        ``records_deleted`` and in ``keys_missing``.
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
        hashes = list(map(hash_key, keys))
        per_partition: Dict[int, int] = {}
        distinct_keys = 0
        if keys:
            owners = runtime.partitions_of_hashes(hashes)
            for partition, positions in touched_partitions(runtime.partitions, owners):
                picked = range(len(keys)) if positions is None else positions
                distinct = {keys[p]: hashes[p] for p in picked}
                distinct_keys += len(distinct)
                found, _ = partition.lookup_many(list(distinct), list(distinct.values()))
                live = len(found) - found.count(None)
                if live:
                    per_partition[partition.partition_id] = live
        landed = self.database.cluster.feed(self.name).ingest(keys=keys, hashes=hashes)
        requested = len(keys)
        deleted = sum(per_partition.values())
        report = DeleteReport(
            dataset=self.name,
            keys_requested=requested,
            records_deleted=deleted,
            keys_missing=distinct_keys - deleted,
            simulated_seconds=landed.simulated_seconds,
            per_partition_deletes=per_partition,
        )
        self.database.events.emit(
            "dataset.delete", dataset=self.name, keys=requested, deleted=deleted
        )
        self._emit_op("delete", report.simulated_seconds, records=requested, deleted=deleted)
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

        A one-key :meth:`get_many` that emits one ``op.read`` sample instead
        of an ``op.batch``.  The sample charges the client/CC round trip plus
        the per-component open overhead and disk pages the probe touched, so
        lookups get slower as a bucket accumulates unmerged components.
        """
        records, latencies = self._read(self._runtime(), (key,), (hash_key(key),))
        self._emit_op("read", latencies[0], found=records[0] is not None)
        return records[0]

    def get_many(
        self, keys: "Sequence[Any]", hashes: "Optional[Sequence[int]]" = None
    ) -> "List[Optional[Dict[str, Any]]]":
        """Point-lookup a batch of primary keys, in order.

        The storage work, per-key cost accounting, and resulting telemetry
        are identical to looping :meth:`get` — each key's latency is computed
        from its own probe's component-open count — and the run travels the
        read path together at any length: routed in one pass, every touched
        partition checked for a block before anything else, and each touched
        partition asked once
        (:meth:`~repro.cluster.partition.StoragePartition.lookup_many`).  A
        refused run probes nothing and credits no heat.  The samples travel
        as a single ``op.batch`` event, which the metrics registry folds in
        with :meth:`~repro.metrics.MetricsRegistry.observe_op_batch`.  This
        is the read path of the batched workload driver.

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
        records, latencies = self._read(runtime, keys, hashes)
        self._emit_op_batch("read", latencies)
        return records

    def _read(
        self, runtime: "DatasetRuntime", keys: "Sequence[Any]", hashes: "Sequence[int]"
    ) -> "Tuple[List[Optional[Dict[str, Any]]], List[float]]":
        """Each key of a non-empty run's record and client-observed latency,
        in key order: the one read path of :meth:`get` and :meth:`get_many`,
        whose heat and chaos hooks see the keys in order."""
        touched = touched_partitions(runtime.partitions, runtime.partitions_of_hashes(hashes))
        cluster = self.database.cluster
        heat = cluster.heat
        if heat is not None:
            for hashed in hashes:
                heat.record_read(self.name, hashed)
        if touched[0][1] is None:  # one partition owns the run
            records, opened = touched[0][0].lookup_many(keys, hashes)
        else:
            records = [None] * len(keys)
            opened = [0] * len(keys)
            for partition, positions in touched:
                found, counts = partition.lookup_many(
                    list(map(keys.__getitem__, positions)), list(map(hashes.__getitem__, positions))
                )
                for position, record, count in zip(positions, found, counts):
                    records[position] = record
                    opened[position] = count
        # opened -> latency: the charge is a pure function of the count, so
        # each distinct count is priced once.
        first = opened[0]
        if opened.count(first) == len(opened):
            latencies = [self._probe_latency(first)] * len(opened)
        else:
            distinct = set(opened)
            priced = dict(zip(distinct, map(self._probe_latency, distinct)))
            latencies = list(map(priced.__getitem__, opened))
        chaos = cluster.chaos
        if chaos is not None:
            # Burst windows stretch the client's service time; partition
            # windows add the retry path's miss/backoff penalty on top.
            latencies = [
                latency * chaos.client_factor() + chaos.routing_penalty(runtime, key, hashed)
                for key, hashed, latency in zip(keys, hashes, latencies)
            ]
        return records, latencies

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
        """Number of live records: a reconciling scan of every partition's
        primary index (``StoragePartition.record_count``), not a stored
        count, so it costs O(records)."""
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
