"""One bucket of a bucketed LSM-tree.

Section IV, storage Option 3: each bucket of the primary index is its own
LSM-tree (memory component + disk components), so moving or deleting a bucket
touches only that bucket's data.  Buckets are reference counted like
components are, so a bucket that has been dropped from the local directory is
reclaimed only after its last reader finishes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ..common.config import LSMConfig
from ..common.errors import StorageError
from ..lsm.component import DiskComponent, ReferenceCounted, ReferenceDiskComponent
from ..lsm.entry import Entry
from ..lsm.merge_policy import MergePolicy
from ..lsm.tree import LSMTree
from ..hashing.bucket_id import BucketId


class Bucket(ReferenceCounted):
    """A bucket: an extendible-hash identity plus its own LSM-tree."""

    def __init__(
        self,
        bucket_id: BucketId,
        config: Optional[LSMConfig] = None,
        merge_policy: Optional[MergePolicy] = None,
        index_name: str = "primary",
    ) -> None:
        super().__init__()
        self.bucket_id = bucket_id
        self.index_name = index_name
        self.tree = LSMTree(
            name=f"{index_name}/bucket-{bucket_id.label}",
            config=config,
            merge_policy=merge_policy,
        )
        #: Set while a split or a rebalance snapshot temporarily blocks access.
        self._locked = False

    # ------------------------------------------------------------- identity

    @property
    def depth(self) -> int:
        return self.bucket_id.depth

    @property
    def hash_prefix(self) -> int:
        return self.bucket_id.prefix

    def owns_key(self, key: Any, hashed: Optional[int] = None) -> bool:
        """Whether ``key`` hashes into this bucket (``hashed`` is
        ``hash_key(key)`` when the caller already routed on it)."""
        if hashed is None:
            return self.bucket_id.contains_key(key)
        return self.bucket_id.contains_hash(hashed)

    # ------------------------------------------------------------- locking

    @property
    def is_locked(self) -> bool:
        return self._locked

    def lock(self) -> None:
        """Block new readers and writers (Algorithm 1 line 6)."""
        if self._locked:
            raise StorageError(f"bucket {self.bucket_id} is already locked")
        self._locked = True

    def unlock(self) -> None:
        if not self._locked:
            raise StorageError(f"bucket {self.bucket_id} is not locked")
        self._locked = False

    def _check_access(self) -> None:
        if self._locked:
            raise StorageError(f"bucket {self.bucket_id} is locked by a split")
        if self._destroyed:
            raise StorageError(f"bucket {self.bucket_id} has been reclaimed")

    # ------------------------------------------------------------- data path

    def scan(self, low: Any = None, high: Any = None) -> Iterator[Entry]:
        self._check_access()
        return self.tree.scan(low, high)

    # -------------------------------------------------------------- storage

    def flush(self) -> Optional[DiskComponent]:
        return self.tree.flush()

    def maybe_flush(self) -> Optional[DiskComponent]:
        return self.tree.maybe_flush()

    def maybe_merge(self) -> Optional[DiskComponent]:
        return self.tree.maybe_merge()

    @property
    def size_bytes(self) -> int:
        return self.tree.size_bytes

    @property
    def disk_components(self) -> List:
        return list(self.tree.disk_components)

    @property
    def component_count(self) -> int:
        return self.tree.component_count

    def entries(self) -> List[Entry]:
        """All live entries of the bucket (used by rebalance scans)."""
        return list(self.tree.scan())

    def snapshot_components(self) -> List:
        """The immutable disk components forming a rebalance snapshot.

        Callers must have flushed the memory component first (the rebalance
        initialization phase does); the returned components are retained so
        the snapshot stays valid even if the bucket is merged or dropped
        concurrently.
        """
        components = list(self.tree.disk_components)
        for component in components:
            component.retain()
        return components

    @staticmethod
    def release_snapshot(components: List) -> None:
        for component in components:
            component.release()

    def split_into(self) -> "tuple[Bucket, Bucket]":
        """Create the two child buckets whose components reference this one.

        This implements Algorithm 1 line 8 ("Create two buckets B1 and B2
        that refer to B"): each child receives a
        :class:`~repro.lsm.component.ReferenceDiskComponent` per parent disk
        component, filtered by the child's (deeper) prefix.  The caller is
        responsible for the surrounding protocol (flushes, locking, manifest
        force) — see :mod:`repro.bucketed.split`.
        """
        low_id, high_id = self.bucket_id.split()
        children = []
        for child_id in (low_id, high_id):
            child = Bucket(
                child_id,
                config=self.tree.config,
                merge_policy=self.tree.merge_policy,
                index_name=self.index_name,
            )
            for component in self.tree.disk_components:
                if isinstance(component, ReferenceDiskComponent):
                    # A re-split before any merge: reference the underlying
                    # real component directly with the deeper prefix.
                    reference = ReferenceDiskComponent(
                        component.target, child_id.prefix, child_id.depth
                    )
                else:
                    reference = ReferenceDiskComponent(
                        component, child_id.prefix, child_id.depth
                    )
                child.tree.disk_components.append(reference)
            children.append(child)
        return children[0], children[1]

    def _destroy(self) -> None:
        """Reclaim the bucket's storage when it is dropped and unreferenced.

        Deactivates every component of the bucket's LSM-tree; components that
        are still pinned (e.g. by an in-flight rebalance snapshot) survive
        until their own reference counts drop to zero.
        """
        super()._destroy()
        self.tree.memory.deactivate()
        for component in self.tree.disk_components:
            component.deactivate()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bucket({self.bucket_id.label}, bytes={self.size_bytes})"
