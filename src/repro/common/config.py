"""Configuration objects for the storage engine and the cluster simulator.

The defaults mirror the experimental setup of Section VI-A of the paper:

* 4 storage partitions per Node Controller,
* a size-tiered merge policy with size ratio 1.2,
* a 2 GB memory-component budget per node (so 512 MB per partition),
* 16 KB pages,
* DynaHash's 10 GB maximum bucket size and StaticHash's 256 buckets.

All values can be overridden for tests and for the scaled-down benchmark runs
(the simulator works at any scale because time is derived from a cost model,
not measured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .units import GIB, KIB, MIB


@dataclass(frozen=True)
class LSMConfig:
    """Configuration of a single LSM-tree (one index of one partition)."""

    #: Maximum size in bytes of the in-memory component before a flush.
    memory_component_bytes: int = 512 * MIB
    #: Size-tiered merge policy ratio (Section VI-A uses 1.2).
    merge_size_ratio: float = 1.2
    #: Minimum number of components participating in one merge.
    merge_min_components: int = 2
    #: Maximum number of components merged at once (0 = unlimited).
    merge_max_components: int = 0
    #: Page size used for I/O accounting.
    page_bytes: int = 16 * KIB
    #: Bits per key for disk-component Bloom filters (0 disables them).
    bloom_bits_per_key: int = 10
    #: Number of hash functions for Bloom filters.
    bloom_num_hashes: int = 7

    def __post_init__(self) -> None:
        if self.memory_component_bytes <= 0:
            raise ConfigError("memory_component_bytes must be positive")
        if self.merge_size_ratio <= 0:
            raise ConfigError("merge_size_ratio must be positive")
        if self.merge_min_components < 2:
            raise ConfigError("merge_min_components must be at least 2")
        if self.page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        if self.bloom_bits_per_key < 0 or self.bloom_num_hashes < 0:
            raise ConfigError("bloom filter parameters must be non-negative")


@dataclass(frozen=True)
class BucketingConfig:
    """Configuration of the dynamic-bucketing layer (Section III / IV)."""

    #: Maximum bucket size before a split (DynaHash uses 10 GB in the paper).
    max_bucket_bytes: int = 10 * GIB
    #: Initial number of buckets created per partition when a dataset is made.
    initial_buckets_per_partition: int = 1
    #: If True, buckets never split (StaticHash behaviour).
    static: bool = False
    #: For StaticHash: total number of buckets across the dataset (paper: 256).
    static_total_buckets: int = 256

    def __post_init__(self) -> None:
        if self.max_bucket_bytes <= 0:
            raise ConfigError("max_bucket_bytes must be positive")
        if self.initial_buckets_per_partition < 1:
            raise ConfigError("initial_buckets_per_partition must be at least 1")
        if self.static_total_buckets < 1:
            raise ConfigError("static_total_buckets must be at least 1")


@dataclass(frozen=True)
class CostModelConfig:
    """Parameters converting work (bytes, records, messages) to simulated seconds.

    The absolute values are calibrated loosely to the paper's hardware
    (i3.xlarge: NVMe SSD ~500 MB/s sequential, 10 Gbit network shared by 4
    partitions, record parsing being CPU-heavy).  Only the *ratios* matter for
    reproducing the figures' shapes.
    """

    #: Sequential disk read throughput in bytes/second per partition.
    disk_read_bytes_per_sec: float = 450 * MIB
    #: Sequential disk write throughput in bytes/second per partition.
    disk_write_bytes_per_sec: float = 350 * MIB
    #: Network throughput in bytes/second per node (shared by its partitions).
    network_bytes_per_sec: float = 280 * MIB
    #: CPU cost of parsing one ingested record, in seconds (paper: ingestion is
    #: CPU-heavy due to record parsing).
    cpu_parse_record_sec: float = 6.0e-6
    #: CPU cost of comparing/merging one record during LSM merges and sorts.
    cpu_compare_record_sec: float = 4.0e-7
    #: CPU cost applied per record by each query operator that touches it.
    cpu_operator_record_sec: float = 2.5e-7
    #: Fixed latency of one CC<->NC control message, in seconds.
    rpc_latency_sec: float = 0.002
    #: Extra per-component seek/open overhead charged per disk component read.
    component_open_sec: float = 0.001

    def __post_init__(self) -> None:
        for name in (
            "disk_read_bytes_per_sec",
            "disk_write_bytes_per_sec",
            "network_bytes_per_sec",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "cpu_parse_record_sec",
            "cpu_compare_record_sec",
            "cpu_operator_record_sec",
            "rpc_latency_sec",
            "component_open_sec",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level configuration for a simulated AsterixDB-style cluster."""

    #: Number of Node Controllers.
    num_nodes: int = 4
    #: Storage partitions per NC (paper: 4).
    partitions_per_node: int = 4
    #: LSM configuration shared by all indexes.
    lsm: LSMConfig = field(default_factory=LSMConfig)
    #: Bucketing configuration for primary indexes.
    bucketing: BucketingConfig = field(default_factory=BucketingConfig)
    #: Cost model converting work into simulated time.
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    #: Seed for all pseudo-random choices (data generation, workload).
    seed: int = 2022
    #: Optional rebalancing-strategy name resolved through the strategy
    #: registry (e.g. ``"dynahash"``, ``"static"``, ``"consistent"``,
    #: ``"hashing"``).  ``None`` keeps the legacy behaviour of passing a
    #: strategy object to the cluster/Database directly.
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be at least 1")
        if self.partitions_per_node < 1:
            raise ConfigError("partitions_per_node must be at least 1")

    @property
    def total_partitions(self) -> int:
        """Total number of storage partitions in the cluster."""
        return self.num_nodes * self.partitions_per_node
