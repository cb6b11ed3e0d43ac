"""Bucket splitting — Algorithm 1 of the paper.

The split must neither rewrite data (that would cause write amplification)
nor block reads and writes for long.  The protocol is::

    1. Pause scheduling merges for B; wait for running merges to finish.
    2. Asynchronously flush B's memory component (writers are not blocked).
    3. Lock B (blocks new readers/writers briefly).
    4. Synchronously flush B's memory component (persists stragglers).
    5. Create children B1, B2 whose disk components *reference* B's.
    6. Force the directory metadata file (the split becomes durable).
    7. Unlock; resume merges.

In the simulator merges are synchronous, so "wait for merges" is implicit;
the two flushes and the short lock window are modelled explicitly and their
sizes reported in :class:`SplitResult` so benchmarks can account the cost of
splits during ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..common.errors import StorageError
from ..lsm.manifest import Manifest
from .bucket import Bucket


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one bucket split."""

    parent: Bucket
    low_child: Bucket
    high_child: Bucket
    #: Bytes flushed by the asynchronous (non-blocking) flush.
    async_flush_bytes: int
    #: Bytes flushed by the synchronous flush while the bucket was locked:
    #: the only bytes written while readers and writers are blocked, which
    #: the two-flush approach keeps to the stragglers.
    sync_flush_bytes: int
    #: Number of parent disk components referenced (not copied) by each child.
    referenced_components: int

    @property
    def children(self) -> Tuple[Bucket, Bucket]:
        return (self.low_child, self.high_child)


def split_bucket(bucket: Bucket, manifest: Optional[Manifest] = None) -> SplitResult:
    """Split ``bucket`` into two children following Algorithm 1.

    The returned children are *not* yet registered in any directory; the
    caller (:class:`repro.bucketed.bucketed_lsm.BucketedLSMTree`) swaps them
    in and retires the parent, mirroring how the real system updates its local
    directory and reclaims the parent bucket via reference counting.
    """
    if bucket.is_locked:
        raise StorageError(f"bucket {bucket.bucket_id} is already being split")
    if bucket.is_destroyed:
        raise StorageError(f"bucket {bucket.bucket_id} has been reclaimed")

    # Line 3-4: stop scheduling merges and wait for running ones to finish.
    bucket.tree.pause_merges()
    try:
        # Line 5: asynchronous flush — writers keep going; we model it as a
        # flush of whatever is currently in the memory component.
        async_component = bucket.tree.flush()
        async_flush_bytes = async_component.size_bytes if async_component else 0

        # Line 6: lock the bucket; new readers and writers now block.
        bucket.lock()
        try:
            # Line 7: synchronous flush persists writes that raced in after
            # the asynchronous flush (none in a single-threaded simulation,
            # but concurrent-ingest tests inject some between the two steps
            # via the pre_lock_hook below).
            sync_component = bucket.tree.flush()
            sync_flush_bytes = sync_component.size_bytes if sync_component else 0

            # Line 8: create the children referencing the parent's components.
            low_child, high_child = bucket.split_into()

            # Line 9: force the directory metadata file recording the split.
            if manifest is not None:
                manifest.remove_bucket(bucket.bucket_id.prefix, bucket.bucket_id.depth)
                for child in (low_child, high_child):
                    manifest.add_bucket(
                        child.bucket_id.prefix,
                        child.bucket_id.depth,
                        [c.component_id for c in child.tree.disk_components],
                    )
                manifest.force()
        finally:
            # Line 10: unlock.
            bucket.unlock()
    finally:
        # Line 11: resume scheduling merges (on the parent's tree object; the
        # children start with merges enabled).
        bucket.tree.resume_merges()

    return SplitResult(
        parent=bucket,
        low_child=low_child,
        high_child=high_child,
        async_flush_bytes=async_flush_bytes,
        sync_flush_bytes=sync_flush_bytes,
        referenced_components=len(bucket.tree.disk_components),
    )
