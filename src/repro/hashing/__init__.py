"""Partitioning substrate: extendible hashing, static bucketing, consistent hashing.

* :class:`BucketId` — an extendible-hash bucket identity ``(prefix, depth)``.
* :class:`GlobalDirectory` / :class:`LocalDirectory` — the CC-side and
  partition-side directories of Section III.
* :mod:`repro.hashing.static_bucket` — StaticHash's fixed 256-bucket layout.
* :class:`ConsistentHashRing` — the consistent-hashing baseline with virtual
  nodes.
"""

from .bucket_id import ROOT_BUCKET, BucketId, bucket_for_key, covers_exactly
from .consistent import ConsistentHashRing
from .extendible import GlobalDirectory, LocalDirectory
from .static_bucket import (
    buckets_per_partition,
    static_bucket_depth,
    static_buckets,
    static_directory,
)

__all__ = [
    "ROOT_BUCKET",
    "BucketId",
    "ConsistentHashRing",
    "GlobalDirectory",
    "LocalDirectory",
    "bucket_for_key",
    "buckets_per_partition",
    "covers_exactly",
    "static_bucket_depth",
    "static_buckets",
    "static_directory",
]
