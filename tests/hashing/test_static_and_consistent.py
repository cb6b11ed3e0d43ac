"""Tests for static bucketing and the consistent-hashing baseline."""

from collections import Counter

import pytest

from repro.common.errors import ClusterError, ConfigError
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import covers_exactly
from repro.hashing.consistent import ConsistentHashRing
from repro.hashing.static_bucket import (
    buckets_per_partition,
    static_bucket_depth,
    static_buckets,
    static_directory,
)


class TestStaticBuckets:
    def test_depth_of_256_buckets_is_8(self):
        assert static_bucket_depth(256) == 8

    def test_depth_of_one_bucket_is_zero(self):
        assert static_bucket_depth(1) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            static_bucket_depth(100)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            static_bucket_depth(0)

    def test_static_buckets_cover_space(self):
        assert covers_exactly(static_buckets(64))

    def test_directory_round_robin(self):
        directory = static_directory(256, num_partitions=8)
        per_partition = [len(directory.buckets_of_partition(p)) for p in range(8)]
        assert per_partition == [32] * 8

    def test_paper_bucket_counts(self):
        """Paper: 256 buckets / (4 partitions per node) => 32..4 buckets per
        partition as nodes go 2..16."""
        for nodes, expected in [(2, 32), (4, 16), (8, 8), (16, 4)]:
            counts = buckets_per_partition(256, nodes * 4)
            assert set(counts.values()) == {expected}

    def test_fewer_buckets_than_partitions_rejected(self):
        with pytest.raises(ConfigError):
            static_directory(4, num_partitions=8)

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(ConfigError):
            static_directory(16, num_partitions=0)


def ring_of(nodes, virtual_nodes):
    ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
    for node in nodes:
        ring.add_node(node)
    return ring


def owners(ring, keys):
    return {key: ring.node_for_hash(hash_key(key)) for key in keys}


class TestConsistentHashRing:
    def test_routing_is_deterministic(self):
        ring = ring_of(("nc0", "nc1", "nc2"), virtual_nodes=16)
        again = ring_of(("nc0", "nc1", "nc2"), virtual_nodes=16)
        assert ring.node_for_hash(hash_key("order#17")) == again.node_for_hash(hash_key("order#17"))

    def test_all_nodes_get_some_keys(self):
        ring = ring_of(range(4), virtual_nodes=64)
        assert set(owners(ring, range(2000)).values()) == {0, 1, 2, 3}

    def test_duplicate_node_rejected(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        with pytest.raises(ClusterError):
            ring.add_node("a")

    def test_lookup_on_empty_ring_rejected(self):
        with pytest.raises(ClusterError):
            ConsistentHashRing().node_for_hash(hash_key("k"))

    def test_adding_a_node_only_moves_keys_to_it(self):
        """The local-rebalancing property: growing N to N+1 nodes moves ~1/(N+1) keys."""
        before = owners(ring_of(range(7), virtual_nodes=128), range(4000))
        after = owners(ring_of(range(8), virtual_nodes=128), range(4000))
        moved = [key for key in before if after[key] != before[key]]
        assert 0.05 < len(moved) / len(before) < 0.25  # ~1/8 with virtual-node noise
        assert all(after[key] == 7 for key in moved)

    def test_virtual_nodes_improve_balance(self):
        def imbalance(ring):
            counts = Counter(owners(ring, range(8000)).values())
            return max(counts.values()) / (8000 / 4)

        assert imbalance(ring_of(range(4), virtual_nodes=256)) <= imbalance(
            ring_of(range(4), virtual_nodes=1)
        )

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)
