"""Benchmark scaling configuration.

The paper's experiments load 100 GB of TPC-H data per node on 2-16 AWS nodes;
the reproduction runs the same experiment *structure* on a laptop by loading a
small scale factor and multiplying the accounted work by ``workload_scale`` so
the reported simulated durations land in the paper's ballpark (the relative
comparisons never depend on the multiplier).

Two presets are provided:

* :data:`SMOKE` — seconds-fast, used by the pytest-benchmark suite and CI.
* :data:`FULL` — the full 2/4/8/16 node sweep with more data; minutes-fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..common.config import BucketingConfig, ClusterConfig, CostModelConfig, LSMConfig
from ..common.units import KIB

#: TPC-H scale factor per node used by the paper.
PAPER_SCALE_PER_NODE = 100.0


@dataclass(frozen=True)
class BenchScale:
    """Controls how large the benchmark runs are."""

    #: Cluster sizes swept by the node-count experiments (paper: 2, 4, 8, 16).
    node_counts: Tuple[int, ...] = (2, 4, 8, 16)
    #: Storage partitions per node (paper: 4).
    partitions_per_node: int = 4
    #: TPC-H scale factor loaded per node (paper: 100).
    scale_per_node: float = 0.0002
    #: Controlled write rates (krecords/s) for the concurrent-write experiment.
    write_rates_krecords: Tuple[int, ...] = (0, 10, 20, 30, 40)
    #: How many concurrent rows represent one krecord/s of write rate.
    rows_per_krecord: int = 40
    #: Maximum bucket size for DynaHash, scaled with the data so loading
    #: produces about 4 buckets per partition as in the paper.
    max_bucket_bytes: int = 64 * KIB
    #: StaticHash total bucket count (paper: 256).
    static_total_buckets: int = 256
    #: Memory-component budget per partition.
    memory_component_bytes: int = 48 * KIB
    seed: int = 2022

    @property
    def workload_scale(self) -> float:
        """Work multiplier making simulated durations comparable to the paper."""
        return PAPER_SCALE_PER_NODE / self.scale_per_node

    def cluster_config(self, num_nodes: int) -> ClusterConfig:
        """Cluster configuration for a benchmark run with ``num_nodes`` nodes."""
        return ClusterConfig(
            num_nodes=num_nodes,
            partitions_per_node=self.partitions_per_node,
            lsm=LSMConfig(memory_component_bytes=self.memory_component_bytes),
            bucketing=BucketingConfig(
                max_bucket_bytes=self.max_bucket_bytes,
                initial_buckets_per_partition=1,
                static_total_buckets=self.static_total_buckets,
            ),
            cost=CostModelConfig(),
            seed=self.seed,
        )

    def scale_factor(self, num_nodes: int) -> float:
        """Total TPC-H scale factor for a cluster of ``num_nodes`` nodes."""
        return self.scale_per_node * num_nodes


#: Fast preset used by the pytest-benchmark suite.
SMOKE = BenchScale(
    node_counts=(2, 4, 8),
    scale_per_node=0.0002,
    partitions_per_node=2,
    write_rates_krecords=(0, 10, 20, 40),
    static_total_buckets=64,
    max_bucket_bytes=48 * KIB,
    memory_component_bytes=32 * KIB,
)

#: The full sweep matching the paper's x-axes.
FULL = BenchScale()
