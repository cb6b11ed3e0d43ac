"""Tests for scan reconciliation: the run-at-a-time kernel against the
entry-at-a-time priority queue it replaced (kept here as the oracle)."""

import heapq
import operator
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashutil import hash_key
from repro.lsm.entry import Entry, sort_key, sort_order
from repro.lsm.iterators import joined, merge_runs, merge_scan, reconcile, take


def entries(pairs, seq_start=1, tombstone_keys=()):
    """Build a sorted entry list from (key, value) pairs."""
    result = []
    for i, (key, value) in enumerate(sorted(pairs)):
        result.append(
            Entry(key=key, value=value, seqnum=seq_start + i, tombstone=key in tombstone_keys)
        )
    return result


class TestMergeScan:
    def test_single_source(self):
        source = entries([(1, "a"), (2, "b")])
        assert [e.key for e in merge_scan([source])] == [1, 2]

    def test_two_disjoint_sources_interleave_sorted(self):
        newer = entries([(2, "b"), (4, "d")])
        older = entries([(1, "a"), (3, "c")])
        assert [e.key for e in merge_scan([newer, older])] == [1, 2, 3, 4]

    def test_newer_source_wins_on_duplicate_keys(self):
        newer = entries([(1, "new")], seq_start=10)
        older = entries([(1, "old")], seq_start=1)
        result = list(merge_scan([newer, older]))
        assert len(result) == 1
        assert result[0].value == "new"

    def test_tombstones_suppress_older_values(self):
        newer = entries([(1, None)], tombstone_keys={1}, seq_start=10)
        older = entries([(1, "old"), (2, "keep")], seq_start=1)
        result = list(merge_scan([newer, older]))
        assert [e.key for e in result] == [2]

    def test_tombstones_kept_when_requested(self):
        newer = entries([(1, None)], tombstone_keys={1}, seq_start=10)
        older = entries([(1, "old")], seq_start=1)
        result = list(merge_scan([newer, older], include_tombstones=True))
        assert len(result) == 1
        assert result[0].tombstone

    def test_empty_sources(self):
        assert list(merge_scan([])) == []
        assert list(merge_scan([[], []])) == []

    def test_three_way_merge(self):
        a = entries([(1, "a1"), (4, "a4")], seq_start=20)
        b = entries([(1, "b1"), (2, "b2")], seq_start=10)
        c = entries([(2, "c2"), (3, "c3")], seq_start=1)
        result = {e.key: e.value for e in merge_scan([a, b, c])}
        assert result == {1: "a1", 2: "b2", 3: "c3", 4: "a4"}

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_output_is_sorted_and_unique(self, raw_sources):
        sources = []
        seq = 1000
        for raw in raw_sources:
            deduped = {}
            for key, value in raw:
                deduped[key] = value
            sources.append(entries(list(deduped.items()), seq_start=seq))
            seq -= 100
        result = [e.key for e in merge_scan(sources)]
        assert result == sorted(set(result))

    @given(
        st.dictionaries(st.integers(min_value=0, max_value=30), st.integers(), max_size=20),
        st.dictionaries(st.integers(min_value=0, max_value=30), st.integers(), max_size=20),
    )
    def test_newer_values_always_win_property(self, newer_map, older_map):
        newer = entries(list(newer_map.items()), seq_start=1000)
        older = entries(list(older_map.items()), seq_start=1)
        result = {e.key: e.value for e in merge_scan([newer, older])}
        expected = dict(older_map)
        expected.update(newer_map)
        assert result == expected


def hashed_run(run):
    """``run`` with the key-hash column a component would hold beside it."""
    return run, array("Q", [hash_key(e.key) for e in run])


class TestMergeEntries:
    """The materialising entry points: :func:`reconcile` and, carrying the
    key-hash column by position, :func:`merge_runs`."""

    def test_drop_tombstones(self):
        newer = entries([(1, None)], tombstone_keys={1}, seq_start=10)
        older = entries([(1, "old"), (2, "keep")], seq_start=1)
        merged, hashed = merge_runs([hashed_run(newer), hashed_run(older)], drop_tombstones=True)
        assert [e.key for e in merged] == [2]
        assert list(hashed) == [hash_key(2)]

    def test_keep_tombstones(self):
        newer = entries([(1, None)], tombstone_keys={1}, seq_start=10)
        older = entries([(2, "keep")], seq_start=1)
        merged, hashed = merge_runs([hashed_run(newer), hashed_run(older)], drop_tombstones=False)
        assert [e.key for e in merged] == [1, 2]
        assert merged[0].tombstone
        assert list(hashed) == [hash_key(1), hash_key(2)]

    def test_count_live_entries(self):
        newer = entries([(1, None)], tombstone_keys={1}, seq_start=10)
        older = entries([(1, "old"), (2, "keep"), (3, "keep")], seq_start=1)
        live, hashed = reconcile([newer, older])
        assert len(live) == 2 and hashed is None


# ------------------------------------------------------------ the heap oracle


def heap_merge_scan(sources, include_tombstones=False):
    """The priority-queue ``merge_scan`` the kernel replaced, verbatim: one
    push, one pop and one ``sort_key`` per entry; ties go to the earlier
    (newer) source, and within a source to the earlier entry."""
    iterators = [iter(source) for source in sources]
    heap = []
    counter = 0

    def push_next(priority):
        nonlocal counter
        for entry in iterators[priority]:
            heapq.heappush(heap, (sort_key(entry.key), priority, counter, entry))
            counter += 1
            break

    for priority in range(len(iterators)):
        push_next(priority)
    last_key = None
    emitted_for_key = False
    while heap:
        key, priority, _, entry = heapq.heappop(heap)
        push_next(priority)
        if key != last_key:
            last_key = key
            emitted_for_key = False
        if emitted_for_key:
            continue
        emitted_for_key = True
        if entry.tombstone and not include_tombstones:
            continue
        yield entry


KEY_SHAPES = {
    "int": st.integers(-6, 6) | st.integers(-(2**70), 2**70),
    "str": st.text(alphabet="abc", max_size=2),
    "tuple": st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    # Shapes mixed inside one run: ordered only through sort_key.
    "mixed": st.integers(-2, 2) | st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
}


@st.composite
def newest_first_runs(draw, max_runs=5):
    """Sorted runs over one key shape, newest first: keys repeat across runs
    and next to each other inside a run, some entries are tombstones, some
    runs are empty."""
    shape = KEY_SHAPES[draw(st.sampled_from(sorted(KEY_SHAPES)))]
    runs = []
    seqnum = 10_000
    for _ in range(draw(st.integers(0, max_runs))):
        keys = sorted(draw(st.lists(shape, max_size=12)), key=sort_key)
        run = []
        for key in keys:
            seqnum -= 1
            run.append(Entry(key, seqnum, seqnum, tombstone=draw(st.integers(0, 3)) == 0))
        runs.append(run)
    if sum(map(bool, runs)) < 2:
        # A lone run goes through untouched, on the components' contract that
        # a run holds each key once; only the heap would reconcile inside it.
        runs = [list({sort_key(e.key): e for e in reversed(run)}.values())[::-1] for run in runs]
    return runs


def same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right, strict=True))


class TestKernelAgainstTheHeap:
    @settings(max_examples=300, deadline=None)
    @given(runs=newest_first_runs(), include_tombstones=st.booleans(), lazy=st.booleans())
    def test_merge_scan_yields_the_same_entry_objects(self, runs, include_tombstones, lazy):
        expected = list(heap_merge_scan(runs, include_tombstones))
        sources = [(entry for entry in run) for run in runs] if lazy else runs
        assert same_objects(list(merge_scan(sources, include_tombstones)), expected)

    @settings(max_examples=300, deadline=None)
    @given(runs=newest_first_runs(), include_tombstones=st.booleans(), columns=st.booleans())
    def test_reconcile_carries_the_hash_column_by_position(
        self, runs, include_tombstones, columns
    ):
        expected = list(heap_merge_scan(runs, include_tombstones))
        keys = [[entry.key for entry in run] for run in runs] if columns else None
        hashes = [array("Q", [hash_key(entry.key) for entry in run]) for run in runs]
        merged, hashed = reconcile(runs, keys, hashes, include_tombstones)
        assert same_objects(merged, expected)
        assert hashed == array("Q", [hash_key(entry.key) for entry in expected])
        again, hashed = merge_runs(
            list(zip(runs, hashes, strict=True)), drop_tombstones=not include_tombstones
        )
        assert same_objects(again, expected)
        assert hashed == array("Q", [hash_key(entry.key) for entry in expected])

    def test_a_single_run_is_the_answer_and_no_key_is_touched(self):
        class Untouchable:
            def __lt__(self, other):  # pragma: no cover - must not run
                raise AssertionError("a key was compared")

            __eq__ = __ne__ = __gt__ = __lt__
            __hash__ = None

        run = [Entry(Untouchable(), index, index) for index in range(5)]
        merged, hashed = reconcile([[], run, []], hashes=[[], [7, 8, 9, 10, 11], []])
        assert same_objects(merged, run) and hashed == array("Q", [7, 8, 9, 10, 11])
        assert same_objects(list(merge_scan([run])), run)

    def test_nothing_is_read_before_the_first_next(self):
        pulled = []

        def source():
            pulled.append("started")
            yield Entry(1, "v", 1)

        scan = merge_scan([source()])
        assert not pulled
        assert [entry.key for entry in scan] == [1] and pulled == ["started"]

    def test_a_k_run_reconcile_makes_one_sorted_call(self, monkeypatch):
        import builtins

        import repro.lsm.entry as entry_module

        calls = []

        def counting_sorted(*args, **kwargs):
            calls.append(len(args[0]))
            return builtins.sorted(*args, **kwargs)

        monkeypatch.setattr(entry_module, "sorted", counting_sorted, raising=False)
        runs = [entries([(key, "v") for key in range(start, 40, 4)]) for start in range(4)]
        assert [e.key for e in reconcile(runs)[0]] == list(range(40))
        assert calls == [40]
        reconcile([runs[0], [], []])
        assert calls == [40]

    def test_a_hash_column_of_the_wrong_length_is_refused(self):
        run = entries([(1, "a"), (2, "b")])
        with pytest.raises(ValueError, match="1 hashes for 2 entries"):
            merge_runs([(run, array("Q", [hash_key(1)]))], drop_tombstones=True)


class TestColumnHelpers:
    @given(st.lists(KEY_SHAPES["mixed"] | st.text(max_size=1), max_size=8))
    def test_sort_order_is_the_stable_sort_by_sort_key(self, keys):
        try:
            expected = sorted(range(len(keys)), key=lambda i: sort_key(keys[i]))
        except TypeError:  # an int next to a str: no order either way
            with pytest.raises(TypeError):
                sort_order(keys)
            return
        order, ranks = sort_order(keys)
        assert order == expected
        # The compared column equates keys exactly as sort_key does.
        for i in range(len(keys)):
            for j in range(len(keys)):
                assert (ranks[i] == ranks[j]) == (sort_key(keys[i]) == sort_key(keys[j]))

    def test_sort_order_calls_sort_key_only_for_mixed_shapes(self, monkeypatch):
        import repro.lsm.entry as entry_module

        calls = []
        monkeypatch.setattr(
            entry_module, "sort_key", lambda key: calls.append(key) or sort_key(key)
        )
        ints, pairs = [3, 1, 2], [(1, 2), (0, 5), (0, 5)]
        assert sort_order(ints) == ([1, 2, 0], ints) and sort_order(pairs) == ([1, 2, 0], pairs)
        assert not calls
        assert sort_order([3, (1, 2), 1]) == ([2, 1, 0], [(3,), (1, 2), (1,)])
        assert calls == [3, (1, 2), 1]

    @given(st.lists(st.integers(0, 5), max_size=6))
    def test_take_gathers_by_position(self, order):
        column = ["a", "b", "c", "d", "e", "f"]
        assert list(take(column, order)) == [column[i] for i in order]
        assert list(take(array("Q", range(6)), order)) == order

    def test_joined_extends_lists_and_arrays(self):
        assert joined([[1], (), iter([2, 3])], []) == [1, 2, 3]
        assert joined([array("Q", [1]), [2]], array("Q")) == array("Q", [1, 2])
