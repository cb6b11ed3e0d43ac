"""Directory metadata ("manifest") files.

Algorithm 1 (bucket split) and the rebalance finalization phase both end with
"force a directory metadata file to disk", which is what makes a split or a
bucket install/remove durable and recoverable.  :class:`Manifest` models that
metadata file for one index: it records the set of valid buckets and, per
bucket, the list of valid component ids, plus the lazy-cleanup filters that
secondary indexes attach to their components (Section V-C).

The manifest distinguishes the *volatile* state (what the running index
believes) from the *durable* state (the last forced snapshot); a crash reverts
to the durable state, which is how partially-split buckets and uncommitted
rebalance buckets get cleaned up on recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class BucketManifestEntry:
    """Durable description of one bucket of a bucketed index."""

    hash_prefix: int
    depth: int
    component_ids: List[int] = field(default_factory=list)

    @property
    def bucket_id(self) -> Tuple[int, int]:
        return (self.hash_prefix, self.depth)


@dataclass
class ManifestState:
    """The full durable state of one index."""

    #: Valid buckets keyed by (hash_prefix, depth).
    buckets: Dict[Tuple[int, int], BucketManifestEntry] = field(default_factory=dict)
    #: Component ids that belong to the index but are not bucketed
    #: (secondary indexes store all buckets together).
    component_ids: List[int] = field(default_factory=list)
    #: Lazy-cleanup filters: (hash_prefix, depth) pairs whose entries must be
    #: ignored by queries until the next merge rewrites the components.
    invalidated_buckets: Set[Tuple[int, int]] = field(default_factory=set)
    #: Ids of component lists received by an in-flight rebalance (invisible to
    #: queries until commit).
    pending_received: List[int] = field(default_factory=list)

    def copy(self) -> "ManifestState":
        """An independent copy: every container here holds only ints, tuples
        of ints and :class:`BucketManifestEntry` records, copied one by one."""
        return ManifestState(
            buckets={
                bucket_id: BucketManifestEntry(
                    entry.hash_prefix, entry.depth, list(entry.component_ids)
                )
                for bucket_id, entry in self.buckets.items()
            },
            component_ids=list(self.component_ids),
            invalidated_buckets=set(self.invalidated_buckets),
            pending_received=list(self.pending_received),
        )


class Manifest:
    """Volatile + durable metadata for one index, with an explicit force step."""

    def __init__(self, index_name: str) -> None:
        self.index_name = index_name
        self._volatile = ManifestState()
        self._durable = ManifestState()
        self.force_count = 0

    # -- volatile mutations -------------------------------------------------

    @property
    def volatile(self) -> ManifestState:
        return self._volatile

    @property
    def durable(self) -> ManifestState:
        return self._durable

    def add_bucket(self, hash_prefix: int, depth: int, component_ids: Optional[List[int]] = None) -> None:
        entry = BucketManifestEntry(hash_prefix, depth, list(component_ids or []))
        self._volatile.buckets[entry.bucket_id] = entry

    def remove_bucket(self, hash_prefix: int, depth: int) -> None:
        self._volatile.buckets.pop((hash_prefix, depth), None)

    def set_components(self, component_ids: List[int]) -> None:
        """Record the flat component list of an unbucketed (secondary) index."""
        self._volatile.component_ids = list(component_ids)

    def invalidate_bucket(self, hash_prefix: int, depth: int) -> None:
        """Mark a bucket's entries as logically deleted (lazy cleanup)."""
        self._volatile.invalidated_buckets.add((hash_prefix, depth))

    def clear_invalidation(self, hash_prefix: int, depth: int) -> None:
        self._volatile.invalidated_buckets.discard((hash_prefix, depth))

    def add_pending_received(self, list_id: int) -> None:
        if list_id not in self._volatile.pending_received:
            self._volatile.pending_received.append(list_id)

    def remove_pending_received(self, list_id: int) -> None:
        if list_id in self._volatile.pending_received:
            self._volatile.pending_received.remove(list_id)

    # -- durability ---------------------------------------------------------

    def force(self) -> None:
        """Persist the volatile state (the "force metadata file" step)."""
        self._durable = self._volatile.copy()
        self.force_count += 1

    def crash_and_recover(self) -> ManifestState:
        """Simulate a crash: the volatile state reverts to the durable one."""
        self._volatile = self._durable.copy()
        return self._volatile

    def valid_bucket_ids(self, durable: bool = False) -> Set[Tuple[int, int]]:
        state = self._durable if durable else self._volatile
        return set(state.buckets.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Manifest(index={self.index_name!r}, buckets={len(self._volatile.buckets)}, "
            f"forced={self.force_count})"
        )
