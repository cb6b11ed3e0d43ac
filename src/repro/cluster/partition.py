"""A storage partition: one dataset's slice of one Node Controller.

Each dataset partition is managed by an LSM-based storage engine holding a
primary index, a primary-key index, and the dataset's local secondary indexes
(Section II-C).  Under DynaHash the primary index is a
:class:`~repro.bucketed.bucketed_lsm.BucketedLSMTree`; the primary-key index
and the secondary indexes keep the traditional single-LSM layout (storage
Option 1), exactly as Section IV chooses.

The partition also implements the NC-side mechanics of the rebalance
operation: bucket snapshots, a *pending received* area that is invisible to
queries until commit, replicated-write application, and the idempotent
install/cleanup tasks used by the two-phase commit and its recovery cases.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..bucketed.bucket import Bucket
from ..bucketed.bucketed_lsm import BucketedLSMTree, MaintenanceReport
from ..common.config import BucketingConfig, LSMConfig
from ..common.errors import StorageError
from ..common.hashutil import hash_key
from ..hashing.bucket_id import BucketId
from ..lsm.entry import Entry, estimate_value_size
from ..lsm.iterators import drop_tombstones, merge_runs
from ..lsm.stats import StorageStats
from ..lsm.tree import LSMTree
from .dataset import DatasetSpec, SecondaryIndexSpec


def _secondary_entry_key(spec: SecondaryIndexSpec, record: Mapping[str, Any], primary_key: Any) -> Tuple:
    """Secondary index keys are (secondary key ..., primary key)."""
    return spec.secondary_key(record) + (primary_key,)


@dataclass
class PendingReceivedBucket:
    """Rebalance data received for one bucket, invisible until commit."""

    bucket: Bucket
    #: Per-secondary-index received-list ids.
    secondary_list_ids: Dict[str, int] = field(default_factory=dict)
    #: Entries replicated from the source's concurrent writes, applied to the
    #: received bucket's memory component and buffered per secondary index.
    replicated_records: int = 0
    secondary_buffer: Dict[str, List[Entry]] = field(default_factory=dict)


class StoragePartition:
    """One dataset partition on one NC."""

    def __init__(
        self,
        dataset: DatasetSpec,
        partition_id: int,
        node_id: str,
        initial_buckets: Iterable[BucketId],
        lsm_config: Optional[LSMConfig] = None,
        bucketing_config: Optional[BucketingConfig] = None,
    ) -> None:
        self.dataset = dataset
        self.partition_id = partition_id
        self.node_id = node_id
        self.lsm_config = lsm_config or LSMConfig()
        self.bucketing_config = bucketing_config or BucketingConfig()

        self.primary = BucketedLSMTree(
            name=f"{dataset.name}/p{partition_id}/primary",
            partition_id=partition_id,
            initial_buckets=initial_buckets,
            lsm_config=self.lsm_config,
            bucketing_config=self.bucketing_config,
            # Partitions created on freshly added nodes start with no buckets;
            # a rebalance installs buckets into them afterwards.
            allow_empty=True,
        )
        self.primary_key_index = LSMTree(
            name=f"{dataset.name}/p{partition_id}/pkidx", config=self.lsm_config
        )
        self.secondary_indexes: Dict[str, LSMTree] = {
            spec.name: LSMTree(
                name=f"{dataset.name}/p{partition_id}/{spec.name}",
                config=self.lsm_config,
                routing_key_extractor=lambda composite: composite[-1],
            )
            for spec in dataset.secondary_indexes
        }
        #: Rebalance-received buckets, invisible to queries until commit.
        self.pending_received: Dict[BucketId, PendingReceivedBucket] = {}
        #: True while the finalization phase blocks reads and writes.
        self.blocked = False

    # -------------------------------------------------------------- helpers

    def _single_trees(self) -> List[LSMTree]:
        """The indexes kept as one LSM-tree each: primary-key and secondary."""
        return [self.primary_key_index, *self.secondary_indexes.values()]

    def _check_not_blocked(self) -> None:
        if self.blocked:
            raise StorageError(
                f"partition {self.partition_id} is blocked by a rebalance finalization"
            )

    # ------------------------------------------------------------ write path

    def insert_many(
        self,
        keys: Sequence[Any],
        hashes: Sequence[int],
        records: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> Tuple[List[Optional[Dict[str, Any]]], List[int]]:
        """Write a batch given as aligned columns, a run at a time: each
        row's primary key, its ``hash_key`` and its record.  Every row
        upserts its record; without a record column (``records=None``) the
        batch is a run of deletes (tombstone rows), as ``values=None`` is a
        key-only run in :meth:`LSMTree.insert_many`.

        The resulting state — every index's entries and sequence numbers,
        the memory components' hash columns and the stats — is the one
        writing the rows one by one in order leaves.
        Each record is copied once and that copy sized once, here, a column
        pass each: the primary entries are born with the sizes.  Every row
        is routed to its local bucket before anything lands, so a blocked
        partition, an unowned hash, a bucket a split locked or a deactivated
        memory component raises with nothing written.  Then each touched
        bucket tree takes its rows with one :meth:`LSMTree.insert_many`, the
        primary-key index all of them with one more, and each secondary
        index its entries with one.  Nothing is logged: the simulator models
        no NC data log (see :mod:`repro.lsm.wal`).  The data feed, the
        rebalance's log replicator and the Hashing baseline's rebuild (and so
        ``Dataset.delete``, a feed call) land each partition's slice of a
        batch through here, reusing the hashes computed for routing.

        Returns the partition's copy of each record (``None`` for a
        tombstone row) and its byte size (0 for one), in order — what the
        feed totals and what the replicator forwards and prices.  A
        ``hashes`` or ``records`` column of another length than ``keys``
        raises :class:`ValueError`, before anything lands.
        """
        if self.blocked:
            self._check_not_blocked()
        if len(hashes) != len(keys):
            raise ValueError(f"{len(hashes)} hashes for {len(keys)} keys")
        if records is not None and len(records) != len(keys):
            raise ValueError(f"{len(records)} records for {len(keys)} keys")
        if not keys:
            return [], []
        if records is None:
            stored: List[Optional[Dict[str, Any]]] = [None] * len(keys)
            sizes = [0] * len(keys)
            tombstones: Optional[List[bool]] = [True] * len(keys)
        else:
            stored = list(map(dict, records))
            sizes = list(map(estimate_value_size, stored))
            tombstones = None
        routes = self.primary.route_many(hashes)
        pk_index = self.primary_key_index
        pk_index.memory.check_writable()
        secondary_runs = (
            self._secondary_runs(keys, hashes, stored, routes) if self.secondary_indexes else ()
        )
        for tree, positions in routes:
            tree.insert_many(keys, stored, hashes, sizes, tombstones, positions)
        pk_index.insert_many(keys, None, hashes, tombstones=tombstones)
        for index, run_keys, run_values, run_tombstones in secondary_runs:
            index.insert_many(run_keys, run_values, tombstones=run_tombstones)
        return stored, sizes

    def _secondary_runs(
        self,
        keys: Sequence[Any],
        hashes: Sequence[int],
        stored: Sequence[Optional[Dict[str, Any]]],
        routes: Sequence[Tuple[LSMTree, Optional[List[int]]]],
    ) -> List[Tuple[LSMTree, List[Any], List[Any], Optional[List[bool]]]]:
        """Each secondary index's entries for a batch about to land, in row
        order: ``(index, keys, values, tombstones)``.

        A write must not leave the old record's secondary entry behind.
        Each row's old record is the batch's earlier row with its key, else
        the live value its bucket tree holds now, read with
        :meth:`LSMTree.peek` (no stats move, so the probe costs nothing in
        the cost model).  An old secondary key the new record does not
        rewrite gets antimatter just before the row's new entry; a tombstone
        row gets antimatter for its old record's secondary key and no new
        entry.  ``tombstones`` is ``None`` when no row needed any.  A
        deactivated memory component of an index raises here, before
        anything lands.
        """
        for index in self.secondary_indexes.values():
            index.memory.check_writable()
        tree_of: List[Optional[LSMTree]] = [None] * len(keys)
        for tree, positions in routes:
            for position in range(len(keys)) if positions is None else positions:
                tree_of[position] = tree
        olds: List[Optional[Dict[str, Any]]] = []
        latest: Dict[Any, int] = {}
        for position, key in enumerate(keys):
            earlier = latest.get(key)
            if earlier is None:
                entry = tree_of[position].peek(key, hashes[position])
                olds.append(None if entry is None or entry.tombstone else entry.value)
            else:
                olds.append(stored[earlier])
            latest[key] = position
        runs = []
        for spec in self.dataset.secondary_indexes:
            run_keys: List[Any] = []
            run_values: List[Any] = []
            run_tombstones: List[bool] = []
            for key, record, old in zip(keys, stored, olds):
                entry_key = None if record is None else _secondary_entry_key(spec, record, key)
                if old is not None:
                    old_key = _secondary_entry_key(spec, old, key)
                    if old_key != entry_key:
                        run_keys.append(old_key)
                        run_values.append(None)
                        run_tombstones.append(True)
                if record is not None:
                    run_keys.append(entry_key)
                    run_values.append(spec.covered_value(record))
                    run_tombstones.append(False)
            tombstones = run_tombstones if True in run_tombstones else None
            runs.append((self.secondary_indexes[spec.name], run_keys, run_values, tombstones))
        return runs

    # ------------------------------------------------------------- read path

    def lookup(
        self, primary_key: Any, hashed: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Point lookup by primary key: a one-key :meth:`lookup_many`,
        returning only the record.  ``hashed`` is ``hash_key(primary_key)``
        when the caller already routed on it."""
        if hashed is None:
            hashed = hash_key(primary_key)
        return self.lookup_many((primary_key,), (hashed,))[0][0]

    def lookup_many(
        self, primary_keys: Sequence[Any], hashes: Sequence[int]
    ) -> Tuple[List[Optional[Dict[str, Any]]], List[int]]:
        """Point lookups of a non-empty run of keys (``hashes`` their
        ``hash_key``), ``blocked`` checked once: each key's record and the
        number of disk components its own probe opened (read off the one
        bucket tree it searched), in key order; the `Dataset` read verbs
        price each key's read from its count.  A key whose bucket is not
        local is a miss that opens nothing, not an error: a query routed
        with a stale directory copy may probe where a key used to live."""
        if self.blocked:
            self._check_not_blocked()
        return self.primary.lookup_many(primary_keys, hashes)

    def scan_primary(
        self, low: Any = None, high: Any = None, ordered: bool = False
    ) -> Iterator[Entry]:
        """Scan the partition's primary index (unordered or merge-sorted)."""
        self._check_not_blocked()
        return self.primary.scan(low=low, high=high, ordered=ordered)

    def scan_secondary(
        self, index_name: str, low: Any = None, high: Any = None
    ) -> Iterator[Entry]:
        """Scan one secondary index; entries are ((sk..., pk), covered_fields)."""
        self._check_not_blocked()
        if index_name not in self.secondary_indexes:
            raise StorageError(f"partition has no secondary index {index_name!r}")
        return self.secondary_indexes[index_name].scan(low, high)

    def count_keys(self) -> int:
        """COUNT(*) served from the primary key index (Section II-C)."""
        return len(self.primary_key_index)

    # ----------------------------------------------------------- maintenance

    @property
    def memory_bytes(self) -> int:
        total = self.primary.memory_bytes + self.primary_key_index.memory.size_bytes
        for tree in self.secondary_indexes.values():
            total += tree.memory.size_bytes
        return total

    def maintain(self, force_flush: bool = False) -> MaintenanceReport:
        """Run the partition's flush/merge/split pass.

        AsterixDB budgets memory components per dataset partition; when the
        budget is exceeded the dataset's memory components are flushed.  After
        flushing, each index runs its merge policy and the primary index may
        split buckets that exceeded the maximum bucket size.  The report
        carries all of the pass's storage work (see :class:`MaintenanceReport`).
        """
        over_budget = self.memory_bytes >= self.lsm_config.memory_component_bytes
        flushed = 0
        if force_flush or over_budget:
            flushed = self.primary.flush_all()
            for tree in self._single_trees():
                component = tree.flush()
                if component is not None:
                    flushed += component.size_bytes
        report = self.primary.maintain(force_flush=False)
        report.flush_bytes += flushed
        report.count_merge(self.primary_key_index)
        for tree in self.secondary_indexes.values():
            report.count_merge(tree)
        return report

    # --------------------------------------------------------------- sizing

    @property
    def size_bytes(self) -> int:
        return self.primary.size_bytes + sum(tree.size_bytes for tree in self._single_trees())

    @property
    def primary_size_bytes(self) -> int:
        return self.primary.size_bytes

    def bucket_sizes(self) -> Dict[BucketId, int]:
        return self.primary.bucket_sizes()

    def stats_snapshot(self) -> StorageStats:
        """Aggregate storage stats across every index (for cost accounting).

        No counter goes backwards across a bucket split: the primary index
        keeps the counters of the buckets its splits retired.
        """
        total = StorageStats()
        total.add(self.primary.aggregated_stats())
        total.add(self.primary_key_index.stats)
        for tree in self.secondary_indexes.values():
            total.add(tree.stats)
        return total

    def record_count(self) -> int:
        return len(self.primary)

    # ----------------------------------------------- rebalance: source side

    def snapshot_bucket(self, bucket_id: BucketId) -> List:
        """Flush and pin the bucket's disk components (Section V-A snapshot)."""
        return self.primary.snapshot_bucket(bucket_id)

    def scan_bucket_snapshot(self, snapshot_components: List) -> Tuple[List[Entry], array]:
        """Materialise the records of a pinned bucket snapshot, newest first
        reconciled (the source-side scan of the data movement phase), with
        the key hashes the snapshot's components already hold, for
        :meth:`receive_bucket`.
        """
        reconciled, hashed = merge_runs(
            [c.hashed_entries() for c in snapshot_components], drop_tombstones=False
        )
        return drop_tombstones(reconciled, hashed)

    def release_bucket_snapshot(self, snapshot_components: List) -> None:
        Bucket.release_snapshot(snapshot_components)

    def cleanup_moved_bucket(self, bucket_id: BucketId) -> None:
        """Source-side commit task: drop the moved bucket from the primary
        index and lazily invalidate its entries in every secondary index.

        Both steps are idempotent (Section V-D relies on this).
        """
        self.primary.remove_bucket(bucket_id)
        for tree in self.secondary_indexes.values():
            tree.invalidate_bucket(bucket_id.prefix, bucket_id.depth)
        self.primary_key_index.invalidate_bucket(bucket_id.prefix, bucket_id.depth)
        self.primary.force_manifest()

    # ------------------------------------------ rebalance: destination side

    def receive_bucket(
        self,
        bucket_id: BucketId,
        entries: Iterable[Entry],
        hashed: Optional[Iterable[int]] = None,
    ) -> PendingReceivedBucket:
        """Store scanned records for a moving bucket, invisible to queries.

        ``hashed`` is the key-hash column :meth:`scan_bucket_snapshot` returned
        with ``entries`` (which are then in key order); the loaded component
        takes it instead of hashing every moved record again, and builds
        its Bloom filter from it on its first miss, like any component.

        The records are bulk-loaded into a bucket object that is *not*
        registered in the primary index's local directory, and into
        received-component lists of each secondary index — the "separate list
        of components" design of Section V-B.

        The pending bucket is created on the first call (which is how the
        rebalance opens the log-replication channel before the scan arrives);
        later calls bulk-load additional scanned data into the same pending
        state.  Loaded components are always placed *older* than the received
        bucket's memory component, preserving the required ordering between
        scanned data and replicated log records.
        """
        pending = self.pending_received.get(bucket_id)
        if pending is None:
            bucket = Bucket(
                bucket_id, config=self.lsm_config, index_name=f"{self.dataset.name}/received"
            )
            pending = PendingReceivedBucket(bucket=bucket)
            for spec in self.dataset.secondary_indexes:
                index = self.secondary_indexes[spec.name]
                pending.secondary_list_ids[spec.name] = index.create_received_list()
                pending.secondary_buffer[spec.name] = []
            self.pending_received[bucket_id] = pending
        entry_list = list(entries)
        if not entry_list:
            return pending
        pending.bucket.tree.add_loaded_component(entry_list, hashed=hashed)
        for spec in self.dataset.secondary_indexes:
            index = self.secondary_indexes[spec.name]
            secondary_entries = []
            for entry in entry_list:
                if entry.tombstone or entry.value is None:
                    continue
                secondary_entries.append(
                    Entry(
                        key=_secondary_entry_key(spec, entry.value, entry.key),
                        value=spec.covered_value(entry.value),
                        seqnum=entry.seqnum,
                    )
                )
            if secondary_entries:
                index.append_to_received_list(
                    pending.secondary_list_ids[spec.name], secondary_entries
                )
        return pending

    def apply_replicated_write(
        self, bucket_id: BucketId, entry: Entry, hashed: Optional[int] = None
    ) -> None:
        """Apply one replicated log record to the pending received bucket.

        Replicated records land in the received bucket's memory component
        (newer than the bulk-loaded scan) and are buffered for the secondary
        indexes; they become durable when :meth:`prepare_rebalance` flushes
        them.  ``hashed`` is ``hash_key(entry.key)`` when the replicator
        routed on it.
        """
        pending = self.pending_received.get(bucket_id)
        if pending is None:
            raise StorageError(
                f"no pending received bucket {bucket_id} on partition {self.partition_id}"
            )
        pending.bucket.tree.insert_many(
            (entry.key,),
            (entry.value,),
            None if hashed is None else (hashed,),
            tombstones=(True,) if entry.tombstone else None,
        )
        pending.replicated_records += 1
        if entry.tombstone or entry.value is None:
            return
        for spec in self.dataset.secondary_indexes:
            pending.secondary_buffer[spec.name].append(
                Entry(
                    key=_secondary_entry_key(spec, entry.value, entry.key),
                    value=spec.covered_value(entry.value),
                    seqnum=entry.seqnum,
                )
            )

    def prepare_rebalance(self) -> int:
        """Prepare-phase NC task: flush rebalance memory components to disk.

        Returns the number of bytes flushed; after this call every received
        record is in (simulated) durable storage, so the NC can vote yes.
        """
        flushed = 0
        for pending in self.pending_received.values():
            component = pending.bucket.flush()
            if component is not None:
                flushed += component.size_bytes
            for spec_name, buffered in pending.secondary_buffer.items():
                if not buffered:
                    continue
                index = self.secondary_indexes[spec_name]
                component = index.append_to_received_list(
                    pending.secondary_list_ids[spec_name], buffered
                )
                flushed += component.size_bytes
                pending.secondary_buffer[spec_name] = []
        return flushed

    def install_received_buckets(self) -> List[BucketId]:
        """Commit task: make every received bucket visible.

        Registers the received bucket in the primary index's local directory
        and installs the secondary indexes' received component lists.
        Idempotent: a second call finds nothing pending and does nothing.
        """
        installed = []
        for bucket_id, pending in list(self.pending_received.items()):
            self.primary.adopt_bucket(pending.bucket)
            for spec_name, list_id in pending.secondary_list_ids.items():
                self.secondary_indexes[spec_name].install_received_list(list_id)
            installed.append(bucket_id)
            del self.pending_received[bucket_id]
        self.primary.force_manifest()
        return installed

    def drop_received_buckets(self) -> List[BucketId]:
        """Abort/cleanup task: delete everything received by the rebalance.

        Idempotent — dropping when nothing is pending is a no-op, which is
        what lets recovery Case 1 re-issue the cleanup to every NC.
        """
        dropped = []
        for bucket_id, pending in list(self.pending_received.items()):
            pending.bucket.deactivate()
            for spec_name, list_id in pending.secondary_list_ids.items():
                self.secondary_indexes[spec_name].drop_received_list(list_id)
            dropped.append(bucket_id)
            del self.pending_received[bucket_id]
        return dropped

    def block(self) -> None:
        """Block reads and writes (finalization phase)."""
        self.blocked = True

    def unblock(self) -> None:
        self.blocked = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoragePartition({self.dataset.name}, p{self.partition_id}@{self.node_id}, "
            f"buckets={self.primary.bucket_count}, bytes={self.size_bytes})"
        )
