"""LSM-tree storage substrate (Section II-B of the paper).

Public surface:

* :class:`LSMTree` — one LSM index (memory component + immutable disk
  components, flushes, size-tiered merges, Bloom-filtered point lookups,
  reconciling range scans).
* :class:`DiskComponent` / :class:`ReferenceDiskComponent` /
  :class:`MemoryComponent` — the component kinds, all reference counted.
* :class:`SizeTieredMergePolicy` and friends — merge policies.
* :class:`WriteAheadLog` — the CC's metadata log of rebalance protocol
  records, with forced records (there is no NC data log; see
  :mod:`repro.lsm.wal`).
* :class:`Manifest` — directory/metadata files with volatile vs durable state.
"""

from .bloom import BloomFilter
from .component import (
    DiskComponent,
    MemoryComponent,
    ReferenceDiskComponent,
    next_component_id,
)
from .entry import Entry, estimate_key_size, estimate_value_size
from .iterators import merge_scan
from .manifest import BucketManifestEntry, Manifest, ManifestState
from .merge_policy import (
    MergeCandidate,
    MergePolicy,
    NoMergePolicy,
    SizeTieredMergePolicy,
)
from .stats import StorageStats
from .tree import LSMTree
from .wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "BloomFilter",
    "BucketManifestEntry",
    "DiskComponent",
    "Entry",
    "LSMTree",
    "LogRecord",
    "LogRecordType",
    "Manifest",
    "ManifestState",
    "MemoryComponent",
    "MergeCandidate",
    "MergePolicy",
    "NoMergePolicy",
    "ReferenceDiskComponent",
    "SizeTieredMergePolicy",
    "StorageStats",
    "WriteAheadLog",
    "estimate_key_size",
    "estimate_value_size",
    "merge_scan",
    "next_component_id",
]
