"""The bucketed LSM-tree (Section IV).

A bucketed LSM-tree is the primary-index storage structure of DynaHash: a
local directory of extendible-hash buckets, each of which is its own LSM-tree
(:class:`~repro.bucketed.bucket.Bucket`).  It offers the same interface as a
traditional LSM-tree — writes, point lookups, range scans — plus the
operations the rebalance protocol needs: bucket-granular snapshots, installs,
and removals, and dynamic bucket splits when a bucket grows past the
configured maximum size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..common.config import BucketingConfig, LSMConfig
from ..common.errors import BucketNotFoundError, DirectoryError, StorageError
from ..common.hashutil import hash_key
from ..hashing.bucket_id import BucketId
from ..hashing.extendible import LocalDirectory
from ..lsm.entry import Entry
from ..lsm.manifest import Manifest
from ..lsm.stats import StorageStats
from ..lsm.tree import LSMTree
from .bucket import Bucket
from .scan import ScanMode, choose_scan_mode, scan_with_mode
from .split import SplitResult, split_bucket


@dataclass
class MaintenanceReport:
    """Work performed by one maintenance pass (flushes, merges, splits).

    A pass counts all the storage work it does, a split's two flushes
    included, so a caller prices that work from the reports alone: summed
    over the passes, the counters equal the ``StorageStats`` diff the passes
    caused.
    """

    flush_bytes: int = 0
    merge_read_bytes: int = 0
    merge_write_bytes: int = 0
    records_merged: int = 0
    splits: List[SplitResult] = field(default_factory=list)

    @property
    def idle(self) -> bool:
        """True when the pass flushed, merged and split nothing."""
        return not (
            self.flush_bytes
            or self.merge_read_bytes
            or self.merge_write_bytes
            or self.records_merged
            or self.splits
        )

    def merge_into(self, other: "MaintenanceReport") -> None:
        other.flush_bytes += self.flush_bytes
        other.merge_read_bytes += self.merge_read_bytes
        other.merge_write_bytes += self.merge_write_bytes
        other.records_merged += self.records_merged
        other.splits.extend(self.splits)

    def count_merge(self, tree: LSMTree) -> None:
        """Run ``tree``'s merge policy once and count the merge, if any.

        The delta is read from three counters around the call, so a pass
        whose policy picks nothing builds no stats objects.  A tree with no
        disk components returns at once: it has nothing to merge.
        """
        if not tree.disk_components:
            return
        stats = tree.stats
        read = stats.bytes_merged_read
        written = stats.bytes_merged_written
        records = stats.records_merged
        if tree.maybe_merge() is not None:
            self.merge_read_bytes += stats.bytes_merged_read - read
            self.merge_write_bytes += stats.bytes_merged_written - written
            self.records_merged += stats.records_merged - records

    def storage_stats(self) -> StorageStats:
        """The reported work as the storage counters the cost model prices."""
        return StorageStats(
            bytes_flushed=self.flush_bytes,
            bytes_merged_read=self.merge_read_bytes,
            bytes_merged_written=self.merge_write_bytes,
            records_merged=self.records_merged,
        )


class BucketedLSMTree:
    """A local directory of buckets, each stored as its own LSM-tree."""

    def __init__(
        self,
        name: str,
        partition_id: int,
        initial_buckets: Iterable[BucketId],
        lsm_config: Optional[LSMConfig] = None,
        bucketing_config: Optional[BucketingConfig] = None,
        allow_empty: bool = False,
    ) -> None:
        self.name = name
        self.partition_id = partition_id
        self.lsm_config = lsm_config or LSMConfig()
        self.bucketing_config = bucketing_config or BucketingConfig()
        self.directory = LocalDirectory(partition_id)
        self.manifest = Manifest(name)
        self._buckets: Dict[BucketId, Bucket] = {}
        #: Splits are disabled for the duration of a rebalance (Section V-A).
        self.splits_enabled = not self.bucketing_config.static
        #: Splits ever performed.  A count, not the results: a result holds
        #: the retired parent bucket, which must be free to be reclaimed.
        self.split_count = 0
        #: Lifetime counters of the buckets splits retired, so
        #: :meth:`aggregated_stats` never goes backwards across a split.
        self._retired_stats = StorageStats()
        initial = list(initial_buckets)
        if not initial and not allow_empty:
            raise StorageError("a bucketed LSM-tree needs at least one initial bucket")
        for bucket_id in initial:
            self._create_bucket(bucket_id)
        self.manifest.force()

    # --------------------------------------------------------------- buckets

    def _create_bucket(self, bucket_id: BucketId) -> Bucket:
        bucket = Bucket(
            bucket_id,
            config=self.lsm_config,
            index_name=self.name,
        )
        self.directory.add_bucket(bucket_id)
        self._buckets[bucket_id] = bucket
        self.manifest.add_bucket(bucket_id.prefix, bucket_id.depth)
        return bucket

    @property
    def bucket_ids(self) -> List[BucketId]:
        return self.directory.buckets

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def bucket(self, bucket_id: BucketId) -> Bucket:
        try:
            return self._buckets[bucket_id]
        except KeyError:
            raise BucketNotFoundError(
                f"bucket {bucket_id} is not on partition {self.partition_id}"
            ) from None

    def buckets(self) -> List[Bucket]:
        return [self._buckets[bucket_id] for bucket_id in self.directory.buckets]

    def bucket_for_key(self, key: Any, hashed: Optional[int] = None) -> Bucket:
        """The local bucket owning ``key``; ``hashed`` is ``hash_key(key)``
        when the caller already has it."""
        if hashed is None:
            hashed = hash_key(key)
        return self._buckets[self.directory.bucket_for_hash(hashed)]

    def bucket_sizes(self) -> Dict[BucketId, int]:
        """Physical size per bucket — the input to the rebalance planner."""
        return {bucket_id: bucket.size_bytes for bucket_id, bucket in self._buckets.items()}

    # ------------------------------------------------------------ data path

    def route_many(self, hashes: Sequence[int]) -> List[Tuple[LSMTree, Optional[List[int]]]]:
        """The bucket trees a non-empty run of key hashes lands in: one
        ``(tree, positions)`` per touched bucket, as
        :meth:`LocalDirectory.group_hashes` groups them.

        Routing proves ownership through the local directory, so the
        bucket-level ownership check is not repeated.  Everything that can
        refuse the run refuses here, before the caller writes anything: a
        hash no local bucket owns (:class:`DirectoryError`), a bucket a split
        locked or that was reclaimed (:class:`StorageError`) and a
        deactivated memory component (:class:`ComponentStateError`).
        """
        routes = []
        for bucket_id, positions in self.directory.group_hashes(hashes):
            if bucket_id is None:
                unowned = hashes[0 if positions is None else positions[0]]
                raise DirectoryError(
                    f"hash {unowned:#x} belongs to no bucket of partition {self.partition_id}"
                )
            bucket = self._buckets[bucket_id]
            bucket._check_access()
            tree = bucket.tree
            tree.memory.check_writable()
            routes.append((tree, positions))
        return routes

    def lookup(self, key: Any, hashed: Optional[int] = None) -> Tuple[Optional[Any], int]:
        """Point lookup that treats "bucket not local" as a miss.

        A stale-directory probe for a moved bucket simply finds nothing,
        exactly as the partition-level lookup contract requires.  Returns
        ``(value, opened)``: ``opened`` is the number of disk components the
        probe opened, read off the one bucket tree it searched, which is what
        the caller's latency charge needs (0 for a memory-component hit and
        for a bucket that is not local).
        """
        if hashed is None:
            hashed = hash_key(key)
        bucket_id = self.directory.try_bucket_for_hash(hashed)
        if bucket_id is None:
            return None, 0
        bucket = self._buckets[bucket_id]
        bucket._check_access()
        tree = bucket.tree
        stats = tree.stats
        opened_before = stats.components_opened
        entry = tree.get_entry(key, hashed)
        opened = stats.components_opened - opened_before
        if entry is None or entry.tombstone:
            return None, opened
        return entry.value, opened

    def lookup_many(
        self, keys: Sequence[Any], hashes: Sequence[int]
    ) -> Tuple[List[Optional[Any]], List[int]]:
        """:meth:`lookup` for a non-empty run of keys (``hashes`` their
        ``hash_key``): each key's value and its own probe's disk-component
        count, in key order.

        The run is grouped by local bucket (:meth:`LocalDirectory.group_hashes`);
        a hash no local bucket owns is a free miss, as in :meth:`lookup`.
        Every touched bucket passes its access check before any is probed,
        and each bucket tree answers its keys in one :meth:`LSMTree.get_many`.
        """
        probes = []
        for bucket_id, positions in self.directory.group_hashes(hashes):
            if bucket_id is not None:
                bucket = self._buckets[bucket_id]
                bucket._check_access()
                probes.append((bucket.tree, positions))
        values: List[Optional[Any]] = [None] * len(keys)
        opened = [0] * len(keys)
        for tree, positions in probes:
            if positions is None:  # one bucket owns the whole run
                entries, opened = tree.get_many(keys, hashes)
                return [None if e is None or e.tombstone else e.value for e in entries], opened
            entries, counts = tree.get_many(
                [keys[p] for p in positions], [hashes[p] for p in positions]
            )
            for position, entry, count in zip(positions, entries, counts):
                if entry is not None and not entry.tombstone:
                    values[position] = entry.value
                opened[position] = count
        return values, opened

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    def scan(
        self,
        low: Any = None,
        high: Any = None,
        ordered: bool = False,
        mode: Optional[ScanMode] = None,
    ) -> Iterator[Entry]:
        """Range scan over every bucket.

        ``ordered=False`` concatenates per-bucket scans (no extra overhead,
        unsorted output); ``ordered=True`` merge-sorts them (q18-style).  An
        explicit ``mode`` overrides the flag.
        """
        scan_mode = mode if mode is not None else choose_scan_mode(ordered)
        bucket_scans = [bucket.scan(low, high) for bucket in self.buckets()]
        return scan_with_mode(bucket_scans, scan_mode)

    # ----------------------------------------------------------- maintenance

    def flush_all(self) -> int:
        """Flush every bucket's memory component; returns bytes flushed."""
        total = 0
        for bucket in self.buckets():
            component = bucket.flush()
            if component is not None:
                total += component.size_bytes
        return total

    def maintain(self, force_flush: bool = False) -> MaintenanceReport:
        """Run one maintenance pass: flushes, merges, and (if enabled) splits.

        Called by the ingestion path after every batch of writes, mirroring
        AsterixDB's background flush/merge scheduler.
        """
        report = MaintenanceReport()
        for bucket_id in self.directory.buckets:  # a copy: splits edit the directory
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                continue
            flushed = bucket.flush() if force_flush else bucket.maybe_flush()
            if flushed is not None:
                report.flush_bytes += flushed.size_bytes
            report.count_merge(bucket.tree)
            if self._should_split(bucket):
                result = self.split(bucket_id)
                report.flush_bytes += result.async_flush_bytes + result.sync_flush_bytes
                report.splits.append(result)
        return report

    def _should_split(self, bucket: Bucket) -> bool:
        if not self.splits_enabled or self.bucketing_config.static:
            return False
        if bucket.depth >= 62:
            return False
        return bucket.size_bytes >= self.bucketing_config.max_bucket_bytes

    def disable_splits(self) -> None:
        """Disable splits for the duration of a rebalance (Section V-A)."""
        self.splits_enabled = False

    def enable_splits(self) -> None:
        if not self.bucketing_config.static:
            self.splits_enabled = True

    # ---------------------------------------------------------------- split

    def split(self, bucket_id: BucketId) -> SplitResult:
        """Split one bucket in place (Algorithm 1) and update the directory."""
        bucket = self.bucket(bucket_id)
        result = split_bucket(bucket, manifest=self.manifest)
        # Swap the children in for the parent in the local directory.
        self.directory.split_bucket(bucket_id)
        del self._buckets[bucket_id]
        self._buckets[result.low_child.bucket_id] = result.low_child
        self._buckets[result.high_child.bucket_id] = result.high_child
        bucket.deactivate()
        self._retired_stats.add(bucket.tree.stats)
        self.split_count += 1
        return result

    # ------------------------------------------------- rebalance operations

    def snapshot_bucket(self, bucket_id: BucketId) -> List:
        """Flush a bucket and return retained components forming its snapshot.

        This is the "immutable bucket snapshot" of Section V-A: the flush time
        is the rebalance start time for this bucket; everything in the
        returned components predates it, and later writes only live in the
        memory component (the rebalance's log replicator forwards them).
        """
        bucket = self.bucket(bucket_id)
        bucket.flush()
        return bucket.snapshot_components()

    def adopt_bucket(self, bucket: Bucket) -> None:
        """Register an externally constructed bucket object (receive path)."""
        if bucket.bucket_id in self._buckets:
            return
        self.directory.add_bucket(bucket.bucket_id)
        self._buckets[bucket.bucket_id] = bucket
        self.manifest.add_bucket(bucket.bucket_id.prefix, bucket.bucket_id.depth)

    def remove_bucket(self, bucket_id: BucketId) -> None:
        """Drop a bucket that has moved away (source-side commit task).

        Removing an absent bucket is a no-op so the operation is idempotent
        (Section V-D).  The bucket's components are reclaimed once their last
        reader releases them.
        """
        bucket = self._buckets.pop(bucket_id, None)
        self.directory.remove_bucket(bucket_id)
        self.manifest.remove_bucket(bucket_id.prefix, bucket_id.depth)
        if bucket is not None:
            bucket.deactivate()

    def force_manifest(self) -> None:
        self.manifest.force()

    # ---------------------------------------------------------------- sizing

    @property
    def size_bytes(self) -> int:
        return sum(bucket.size_bytes for bucket in self._buckets.values())

    @property
    def component_count(self) -> int:
        return sum(bucket.component_count for bucket in self._buckets.values())

    @property
    def memory_bytes(self) -> int:
        """Bytes held in the buckets' memory components."""
        total = 0
        for bucket in self._buckets.values():
            total += bucket.tree.memory.size_bytes
        return total

    def aggregated_stats(self) -> StorageStats:
        """Sum of per-bucket storage stats, plus those of every bucket a split
        retired: a split moves no counter backwards."""
        total = self._retired_stats.snapshot()
        for bucket in self._buckets.values():
            total.add(bucket.tree.stats)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BucketedLSMTree(name={self.name!r}, partition={self.partition_id}, "
            f"buckets={self.bucket_count}, bytes={self.size_bytes})"
        )
