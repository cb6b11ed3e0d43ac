"""Extendible-hash directories.

Two directory kinds exist in DynaHash (Section III, Figure 1):

* The **global directory** lives at the Cluster Controller and maps every
  hash prefix of length ``D`` (the *global depth*) to the storage partition
  holding that bucket.  Queries and data feeds each take an immutable copy of
  it for routing.  It is refreshed *lazily*: bucket splits at the NCs do not
  update it (they do not need to — routing stays correct because a split
  keeps both children on the same partition); it is only recomputed when a
  rebalance operation starts.
* A **local directory** lives at each partition and tracks exactly the
  buckets that partition owns; it is the authority on bucket boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..common.errors import DirectoryError
from .bucket_id import BucketId, ROOT_BUCKET, covers_exactly


class GlobalDirectory:
    """The CC's bucket → partition map.

    The directory stores an explicit assignment per bucket; slot expansion to
    ``2^D`` entries (as drawn in Figure 1) is derived on demand via
    :meth:`slots` so that doubling the depth never copies data.
    """

    def __init__(self, assignments: Optional[Mapping[BucketId, int]] = None) -> None:
        self._assignments: Dict[BucketId, int] = dict(assignments or {})
        #: Lazily built hash-routing table: slot ``low_bits(h, D)`` ->
        #: ``(bucket, partition)``.  Invalidated by :meth:`reassign`; rebuilt
        #: on the next lookup.  Makes :meth:`lookup_hash` O(1) instead of a
        #: linear scan over every bucket (it sits under every point lookup
        #: and every routed ingest row).
        self._slot_route: Optional[List[Tuple[BucketId, int]]] = None
        self._slot_depth = 0
        if self._assignments:
            self._validate()

    # ---------------------------------------------------------------- basics

    @classmethod
    def initial(cls, num_partitions: int, buckets_per_partition: int = 1) -> "GlobalDirectory":
        """Build the directory used when a dataset is first created.

        The hash space is divided evenly: with ``P`` partitions and ``k``
        buckets per partition the initial depth is ``ceil(log2(P * k))``.
        Partitions are assigned round-robin over the bucket prefixes, which
        gives each partition exactly ``k`` buckets when ``P * k`` is a power
        of two and an off-by-one spread otherwise (matching how AsterixDB
        splits a non-power-of-two cluster).
        """
        if num_partitions < 1:
            raise DirectoryError("need at least one partition")
        if buckets_per_partition < 1:
            raise DirectoryError("need at least one bucket per partition")
        total = num_partitions * buckets_per_partition
        depth = max(1, (total - 1).bit_length())
        assignments: Dict[BucketId, int] = {}
        for prefix in range(1 << depth):
            assignments[BucketId(prefix, depth)] = prefix % num_partitions
        return cls(assignments)

    @classmethod
    def single_bucket(cls, partition: int = 0) -> "GlobalDirectory":
        """A directory with one root bucket on one partition (tiny datasets)."""
        return cls({ROOT_BUCKET: partition})

    def _validate(self) -> None:
        if not covers_exactly(self._assignments.keys()):
            raise DirectoryError("global directory buckets do not tile the hash space")

    # ---------------------------------------------------------------- queries

    @property
    def global_depth(self) -> int:
        """The maximum bucket depth D; the directory has 2^D slots."""
        if not self._assignments:
            return 0
        return max(bucket.depth for bucket in self._assignments)

    @property
    def buckets(self) -> List[BucketId]:
        return sorted(self._assignments.keys())

    @property
    def assignments(self) -> Dict[BucketId, int]:
        return dict(self._assignments)

    def partitions(self) -> List[int]:
        """All partition ids that own at least one bucket."""
        return sorted(set(self._assignments.values()))

    def partition_of_bucket(self, bucket: BucketId) -> int:
        try:
            return self._assignments[bucket]
        except KeyError:
            raise DirectoryError(f"bucket {bucket} is not in the global directory") from None

    def lookup_hash(self, hash_value: int) -> Tuple[BucketId, int]:
        """Route a hash value: return (bucket, partition)."""
        route = self._slot_route
        if route is None:
            route = self._build_slot_route()
        if route:
            return route[hash_value & ((1 << self._slot_depth) - 1)]
        # Fallback for directories too deep to table (never hit in practice).
        for bucket, partition in self._assignments.items():
            if bucket.contains_hash(hash_value):
                return bucket, partition
        raise DirectoryError(f"hash {hash_value:#x} matches no bucket; directory is corrupt")

    def partitions_of_hashes(self, hashes: Sequence[int]) -> List[int]:
        """The partition :meth:`lookup_hash` routes each hash to, in order,
        read off the slot table in one pass."""
        route = self._slot_route
        if route is None:
            route = self._build_slot_route()
        if not route:
            return [self.lookup_hash(hashed)[1] for hashed in hashes]
        mask = (1 << self._slot_depth) - 1
        return [route[hashed & mask][1] for hashed in hashes]

    #: Directories deeper than this are routed by linear scan rather than a
    #: 2^D slot table (2^20 slots is the cap on table memory).
    _MAX_TABLE_DEPTH = 20

    def _build_slot_route(self) -> List[Tuple[BucketId, int]]:
        """Expand the assignments into the 2^D routing table (lazily)."""
        depth = self.global_depth
        if not self._assignments or depth > self._MAX_TABLE_DEPTH:
            self._slot_route = []
            self._slot_depth = 0
            return self._slot_route
        table: List[Optional[Tuple[BucketId, int]]] = [None] * (1 << depth)
        for bucket, partition in self._assignments.items():
            pair = (bucket, partition)
            step = 1 << bucket.depth
            for slot in range(bucket.prefix, 1 << depth, step):
                table[slot] = pair
        if any(pair is None for pair in table):  # pragma: no cover - defensive
            raise DirectoryError("global directory buckets do not tile the hash space")
        self._slot_route = table  # type: ignore[assignment]
        self._slot_depth = depth
        return self._slot_route

    def buckets_of_partition(self, partition: int) -> List[BucketId]:
        return sorted(b for b, p in self._assignments.items() if p == partition)

    def slots(self) -> Dict[int, Tuple[BucketId, int]]:
        """Expand to the 2^D slot table of Figure 1 (for display/tests)."""
        depth = self.global_depth
        table: Dict[int, Tuple[BucketId, int]] = {}
        for bucket, partition in self._assignments.items():
            for slot in bucket.directory_slots(depth):
                table[slot] = (bucket, partition)
        return table

    def normalized_load(self) -> Dict[int, int]:
        """Per-partition sum of normalized bucket sizes (the paper's |P|)."""
        depth = self.global_depth
        load: Dict[int, int] = {}
        for bucket, partition in self._assignments.items():
            load[partition] = load.get(partition, 0) + bucket.normalized_size(depth)
        return load

    # -------------------------------------------------------------- mutation

    def copy(self) -> "GlobalDirectory":
        """An immutable-by-convention snapshot for queries and feeds.

        Skips re-validation (the source directory was validated when built)
        and shares the already-compiled slot-routing table: the table is
        replaced wholesale, never mutated, so a later ``reassign`` on either
        object cannot corrupt the other's routing.  Feeds take one copy per
        ingest call, so this sits on the write hot path.
        """
        clone = GlobalDirectory.__new__(GlobalDirectory)
        clone._assignments = dict(self._assignments)
        clone._slot_route = self._slot_route
        clone._slot_depth = self._slot_depth
        return clone

    def with_assignments(self, assignments: Mapping[BucketId, int]) -> "GlobalDirectory":
        """Return a new directory with a different bucket → partition map."""
        return GlobalDirectory(assignments)

    def reassign(self, bucket: BucketId, partition: int) -> None:
        """Move one bucket to a different partition (rebalance commit path)."""
        if bucket not in self._assignments:
            raise DirectoryError(f"bucket {bucket} is not in the global directory")
        self._assignments[bucket] = partition
        self._slot_route = None

    @classmethod
    def from_local_directories(
        cls, local_directories: Mapping[int, "LocalDirectory"]
    ) -> "GlobalDirectory":
        """Recompute the global directory from the NCs' local directories.

        This is the "Computing the Global Directory" step of the rebalance
        initialization phase: because bucket splits happen locally without
        notifying the CC, the CC must pull the latest local directories to
        learn the true bucket set.
        """
        assignments: Dict[BucketId, int] = {}
        for partition, local in local_directories.items():
            for bucket in local.buckets:
                if bucket in assignments:
                    raise DirectoryError(
                        f"bucket {bucket} is claimed by partitions "
                        f"{assignments[bucket]} and {partition}"
                    )
                assignments[bucket] = partition
        directory = cls(assignments)
        return directory

    def __len__(self) -> int:
        return len(self._assignments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalDirectory):
            return NotImplemented
        return self._assignments == other._assignments

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GlobalDirectory(depth={self.global_depth}, buckets={len(self)})"


class LocalDirectory:
    """The bucket set owned by one storage partition."""

    def __init__(self, partition_id: int, buckets: Optional[Iterable[BucketId]] = None) -> None:
        self.partition_id = partition_id
        self._buckets: Dict[BucketId, None] = {}
        #: Lazily built hash-routing table at the local max depth: slot ->
        #: bucket.  A local directory covers only this partition's slice of
        #: the hash space, so the table is sparse (a dict, not a list) and
        #: misses mean "not owned here".  Invalidated by every mutation.
        self._slot_route: Optional[Dict[int, BucketId]] = None
        self._slot_depth = 0
        #: The buckets in sorted order, cached until the next mutation (every
        #: maintenance pass walks them).
        self._sorted: Optional[List[BucketId]] = None
        for bucket in buckets or ():
            self.add_bucket(bucket)

    @property
    def buckets(self) -> List[BucketId]:
        """The buckets in sorted order; a copy the caller may change."""
        order = self._sorted
        if order is None:
            order = self._sorted = sorted(self._buckets)
        return list(order)

    def __len__(self) -> int:
        return len(self._buckets)

    def __contains__(self, bucket: BucketId) -> bool:
        return bucket in self._buckets

    @property
    def local_depth(self) -> int:
        """The maximum depth among this partition's buckets (0 if empty)."""
        if not self._buckets:
            return 0
        return max(bucket.depth for bucket in self._buckets)

    def add_bucket(self, bucket: BucketId) -> None:
        """Register a bucket; overlapping an existing bucket is an error."""
        for existing in self._buckets:
            if existing.overlaps(bucket):
                raise DirectoryError(
                    f"bucket {bucket} overlaps existing bucket {existing} "
                    f"on partition {self.partition_id}"
                )
        self._buckets[bucket] = None
        self._slot_route = None
        self._sorted = None

    def remove_bucket(self, bucket: BucketId) -> None:
        """Drop a bucket (after it moved away); unknown buckets are a no-op
        so the rebalance cleanup stays idempotent."""
        self._buckets.pop(bucket, None)
        self._slot_route = None
        self._sorted = None

    def split_bucket(self, bucket: BucketId) -> Tuple[BucketId, BucketId]:
        """Replace ``bucket`` with its two children and return them."""
        if bucket not in self._buckets:
            raise DirectoryError(f"bucket {bucket} is not on partition {self.partition_id}")
        low, high = bucket.split()
        del self._buckets[bucket]
        self._buckets[low] = None
        self._buckets[high] = None
        self._slot_route = None
        self._sorted = None
        return low, high

    def bucket_for_hash(self, hash_value: int) -> BucketId:
        bucket = self.try_bucket_for_hash(hash_value)
        if bucket is None:
            raise DirectoryError(
                f"hash {hash_value:#x} belongs to no bucket of partition {self.partition_id}"
            )
        return bucket

    def try_bucket_for_hash(self, hash_value: int) -> Optional[BucketId]:
        """Like :meth:`bucket_for_hash` but returns ``None`` for unowned
        hashes — the point-lookup path treats "not my bucket" as a miss."""
        route = self._slot_route
        if route is None:
            route = self._build_slot_route()
        return route.get(hash_value & ((1 << self._slot_depth) - 1))

    def group_hashes(
        self, hashes: Sequence[int]
    ) -> Sequence[Tuple[Optional[BucketId], Optional[List[int]]]]:
        """The owning bucket of each of a non-empty run of hashes, grouped:
        one ``(bucket, positions)`` per bucket in first-touch order, where
        ``positions`` index ``hashes`` in order (``None`` when one bucket owns
        them all).  Hashes no bucket here owns are grouped under ``None``:
        the write path refuses them, the read path counts them as misses.
        """
        route = self._slot_route
        if route is None:
            route = self._build_slot_route()
        mask = (1 << self._slot_depth) - 1
        first = hashes[0] & mask
        for hashed in hashes:
            if hashed & mask != first:
                break
        else:  # one slot
            return ((route.get(first), None),)
        # Grouped by identity: the table holds one object per bucket (however
        # many slots it spans), and a BucketId's hash is a Python-level call.
        groups: Dict[int, Tuple[Optional[BucketId], List[int]]] = {}
        for position, hashed in enumerate(hashes):
            bucket = route.get(hashed & mask)
            group = groups.get(id(bucket))
            if group is None:
                groups[id(bucket)] = (bucket, [position])
            else:
                group[1].append(position)
        return list(groups.values())

    def _build_slot_route(self) -> Dict[int, BucketId]:
        """Expand this partition's buckets into a sparse slot table (lazily)."""
        depth = self.local_depth
        route: Dict[int, BucketId] = {}
        for bucket in self._buckets:
            step = 1 << bucket.depth
            for slot in range(bucket.prefix, 1 << depth, step):
                route[slot] = bucket
        self._slot_route = route
        self._slot_depth = depth
        return route

    def copy(self) -> "LocalDirectory":
        return LocalDirectory(self.partition_id, self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        labels = ",".join(str(b) for b in self.buckets)
        return f"LocalDirectory(p{self.partition_id}: [{labels}])"
