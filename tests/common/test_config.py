"""Tests for the configuration dataclasses and their validation."""

import pytest

from repro.common import GIB
from repro.common.config import (
    BucketingConfig,
    ClusterConfig,
    CostModelConfig,
    LSMConfig,
)
from repro.common.errors import ConfigError


class TestLSMConfig:
    def test_paper_defaults(self):
        config = LSMConfig()
        assert config.merge_size_ratio == pytest.approx(1.2)
        assert config.page_bytes == 16 * 1024

    def test_rejects_zero_memory_budget(self):
        with pytest.raises(ConfigError):
            LSMConfig(memory_component_bytes=0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ConfigError):
            LSMConfig(merge_size_ratio=0)

    def test_rejects_single_component_merges(self):
        with pytest.raises(ConfigError):
            LSMConfig(merge_min_components=1)

    def test_rejects_negative_bloom_params(self):
        with pytest.raises(ConfigError):
            LSMConfig(bloom_bits_per_key=-1)


class TestBucketingConfig:
    def test_paper_defaults(self):
        config = BucketingConfig()
        assert config.max_bucket_bytes == 10 * GIB
        assert config.static_total_buckets == 256
        assert not config.static

    def test_rejects_zero_bucket_size(self):
        with pytest.raises(ConfigError):
            BucketingConfig(max_bucket_bytes=0)

    def test_rejects_zero_initial_buckets(self):
        with pytest.raises(ConfigError):
            BucketingConfig(initial_buckets_per_partition=0)


class TestCostModelConfig:
    def test_defaults_are_positive(self):
        config = CostModelConfig()
        assert config.disk_read_bytes_per_sec > 0
        assert config.network_bytes_per_sec > 0

    def test_rejects_zero_throughput(self):
        with pytest.raises(ConfigError):
            CostModelConfig(disk_read_bytes_per_sec=0)

    def test_rejects_negative_cpu_cost(self):
        with pytest.raises(ConfigError):
            CostModelConfig(cpu_parse_record_sec=-1e-9)


class TestClusterConfig:
    def test_paper_defaults(self):
        config = ClusterConfig()
        assert config.partitions_per_node == 4
        assert config.total_partitions == config.num_nodes * 4

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ConfigError):
            ClusterConfig(partitions_per_node=0)
