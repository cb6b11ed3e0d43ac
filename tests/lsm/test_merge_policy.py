"""Tests for merge policies (size-tiered ratio 1.2, no-merge)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.merge_policy import (
    MergeCandidate,
    NoMergePolicy,
    SizeTieredMergePolicy,
    select_components,
)


class TestMergeCandidate:
    def test_count(self):
        assert MergeCandidate(0, 3).count == 3

    def test_requires_at_least_two(self):
        with pytest.raises(ValueError):
            MergeCandidate(2, 2)


class TestSizeTieredPolicy:
    def test_no_merge_for_single_component(self):
        policy = SizeTieredMergePolicy(size_ratio=1.2)
        assert policy.select([1000]) is None

    def test_no_merge_when_younger_components_small(self):
        policy = SizeTieredMergePolicy(size_ratio=1.2)
        # Younger total (100) < 1.2 * oldest (1000): no merge.
        assert policy.select([100, 1000]) is None

    def test_merge_when_ratio_exceeded(self):
        policy = SizeTieredMergePolicy(size_ratio=1.2)
        # Newest-first: younger total 1300 >= 1.2 * 1000.
        candidate = policy.select([700, 600, 1000])
        assert candidate is not None
        assert candidate.start == 0
        assert candidate.end == 3

    def test_prefers_longest_eligible_suffix(self):
        policy = SizeTieredMergePolicy(size_ratio=1.0)
        # Both [0,2) and [0,3) eligible with ratio 1; the oldest-most wins.
        candidate = policy.select([500, 500, 400])
        assert candidate.end == 3

    def test_merge_of_equal_sized_components(self):
        policy = SizeTieredMergePolicy(size_ratio=1.2, min_components=2)
        # Three equal components: younger total (2x) >= 1.2 * x.
        candidate = policy.select([100, 100, 100])
        assert candidate is not None
        assert candidate.count == 3

    def test_max_components_cap(self):
        policy = SizeTieredMergePolicy(size_ratio=1.0, max_components=2)
        candidate = policy.select([100, 100, 100, 100])
        assert candidate is not None
        assert candidate.count <= 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SizeTieredMergePolicy(size_ratio=0)
        with pytest.raises(ValueError):
            SizeTieredMergePolicy(min_components=1)
        with pytest.raises(ValueError):
            SizeTieredMergePolicy(max_components=-1)

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=0, max_size=20))
    def test_candidate_always_in_range(self, sizes):
        policy = SizeTieredMergePolicy(size_ratio=1.2)
        candidate = policy.select(sizes)
        if candidate is not None:
            assert 0 <= candidate.start < candidate.end <= len(sizes)
            assert candidate.count >= 2


class TestOtherPolicies:
    def test_no_merge_policy_never_merges(self):
        assert NoMergePolicy().select([1, 1, 1, 1, 1]) is None


class TestSelectComponents:
    def test_select_components_validates_range(self):
        class BadPolicy:
            def select(self, sizes):
                return MergeCandidate(0, 99)

        with pytest.raises(ValueError):
            select_components(BadPolicy(), [1, 2])

    def test_select_components_passthrough(self):
        assert select_components(NoMergePolicy(), [1, 2, 3]) is None
