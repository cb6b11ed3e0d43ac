"""Tests for the bucketed scan modes and the optimizer rule."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketed.scan import (
    ScanMode,
    choose_scan_mode,
    estimate_merge_comparisons,
    ordered_scan,
    scan_with_mode,
    unordered_scan,
)
from repro.lsm.entry import Entry, sort_key

from ..lsm.test_iterators import newest_first_runs, same_objects


def stream(keys, seq_start=1):
    return [Entry(key=k, value=str(k), seqnum=seq_start + i) for i, k in enumerate(sorted(keys))]


class TestOptimizerRule:
    def test_default_is_unordered(self):
        assert choose_scan_mode(requires_primary_key_order=False) is ScanMode.UNORDERED

    def test_order_requirement_forces_merge_sort(self):
        assert choose_scan_mode(requires_primary_key_order=True) is ScanMode.ORDERED


class TestUnorderedScan:
    def test_concatenates_all_buckets(self):
        result = [e.key for e in unordered_scan([stream([1, 4]), stream([2, 3])])]
        assert sorted(result) == [1, 2, 3, 4]

    def test_preserves_within_bucket_order(self):
        result = [e.key for e in unordered_scan([stream([4, 1]), stream([3, 2])])]
        assert result == [1, 4, 2, 3]

    def test_empty(self):
        assert list(unordered_scan([])) == []
        assert list(unordered_scan([[], []])) == []


class TestOrderedScan:
    def test_global_key_order(self):
        result = [e.key for e in ordered_scan([stream([1, 4, 9]), stream([2, 3, 8]), stream([5])])]
        assert result == [1, 2, 3, 4, 5, 8, 9]

    def test_single_bucket_passthrough(self):
        result = [e.key for e in ordered_scan([stream([1, 2, 3])])]
        assert result == [1, 2, 3]

    def test_empty_buckets_are_skipped(self):
        result = [e.key for e in ordered_scan([[], stream([2, 1]), []])]
        assert result == [1, 2]

    def test_tuple_keys(self):
        left = [Entry(key=(1, 2), value="a", seqnum=1), Entry(key=(2, 1), value="b", seqnum=2)]
        right = [Entry(key=(1, 3), value="c", seqnum=3)]
        result = [e.key for e in ordered_scan([left, right])]
        assert result == [(1, 2), (1, 3), (2, 1)]


class TestDispatchAndCost:
    def test_scan_with_mode_dispatch(self):
        buckets = [stream([3]), stream([1])]
        assert [e.key for e in scan_with_mode(buckets, ScanMode.ORDERED)] == [1, 3]
        buckets = [stream([3]), stream([1])]
        assert [e.key for e in scan_with_mode(buckets, ScanMode.UNORDERED)] == [3, 1]

    def test_merge_comparisons_zero_for_single_bucket(self):
        assert estimate_merge_comparisons(1, 10_000) == 0
        assert estimate_merge_comparisons(4, 0) == 0

    def test_merge_comparisons_grow_with_bucket_count(self):
        few = estimate_merge_comparisons(4, 10_000)
        many = estimate_merge_comparisons(16, 10_000)
        assert many > few > 0


def heap_ordered_scan(bucket_scans):
    """The priority-queue ``ordered_scan`` the stable sort replaced, verbatim:
    ties go to the earlier bucket, and nothing is reconciled."""
    heap = []
    iterators = [iter(scan) for scan in bucket_scans]
    counter = 0
    for index, iterator in enumerate(iterators):
        for entry in iterator:
            heapq.heappush(heap, (sort_key(entry.key), index, counter, entry))
            counter += 1
            break
    while heap:
        _, index, _, entry = heapq.heappop(heap)
        for next_entry in iterators[index]:
            heapq.heappush(heap, (sort_key(next_entry.key), index, counter, next_entry))
            counter += 1
            break
        yield entry


class TestOrderedScanAgainstTheHeap:
    @settings(max_examples=300, deadline=None)
    @given(runs=newest_first_runs(max_runs=6), lazy=st.booleans())
    def test_same_entry_objects_in_the_same_order(self, runs, lazy):
        # Buckets hold disjoint keys; the runs here repeat keys on purpose, to
        # hold the tie-break (and the absence of reconciliation) to the heap's.
        expected = list(heap_ordered_scan(runs))
        assert len(expected) == sum(map(len, runs))
        sources = [(entry for entry in run) for run in runs] if lazy else runs
        assert same_objects(list(ordered_scan(sources)), expected)
        assert same_objects(list(unordered_scan(sources if not lazy else runs)), sum(runs, []))

    def test_both_modes_hand_back_a_next_able_iterator(self):
        for mode in ScanMode:
            scan = scan_with_mode([stream([2]), stream([1])], mode)
            assert next(scan).key in (1, 2) and next(scan).key in (1, 2)
            assert next(scan, None) is None

    def test_nothing_is_read_before_the_first_next(self):
        pulled = []

        def bucket():
            pulled.append("started")
            yield from stream([1])

        for mode in ScanMode:
            scan = scan_with_mode([bucket()], mode)
            assert not pulled
            assert [e.key for e in scan] == [1] and pulled.pop() == "started"
