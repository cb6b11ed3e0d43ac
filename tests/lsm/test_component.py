"""Tests for memory, disk, and reference components and their lifecycle."""

import gc
import itertools
import weakref
from array import array
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lsm.tree as tree_module
from repro.bucketed.bucket import Bucket
from repro.common.config import LSMConfig
from repro.common.errors import ComponentStateError
from repro.common.hashutil import hash_key, low_bits
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.lsm.bloom import BloomFilter
from repro.lsm.component import DiskComponent, MemoryComponent, ReferenceDiskComponent
from repro.lsm.entry import Entry, estimate_value_size
from repro.lsm.tree import LSMTree


def make_entries(keys, seq_start=1, value="v"):
    return [Entry(key=k, value=f"{value}{k}", seqnum=seq_start + i) for i, k in enumerate(keys)]


#: (order, line) keys, and the ones a scan bounded by ``2`` and ``(3, 9)`` keeps.
COMPOSITE_KEYS = [(order, line) for order in range(1, 5) for line in range(1, 3)]
COMPOSITE_IN_2_TO_3 = [(2, 1), (2, 2), (3, 1), (3, 2)]


class TestMemoryComponent:
    def test_put_and_get(self):
        mem = MemoryComponent()
        mem.put(Entry(key=1, value="a", seqnum=1))
        assert mem.get(1).value == "a"
        assert mem.get(2) is None

    def test_newest_write_wins(self):
        mem = MemoryComponent()
        mem.put(Entry(key=1, value="a", seqnum=1))
        mem.put(Entry(key=1, value="b", seqnum=2))
        assert mem.get(1).value == "b"
        assert len(mem) == 1

    def test_sorted_entries(self):
        mem = MemoryComponent()
        for key in (5, 1, 3):
            mem.put(Entry(key=key, value=str(key), seqnum=key))
        assert [e.key for e in mem.sorted_entries()] == [1, 3, 5]

    def test_scan_bounds(self):
        mem = MemoryComponent()
        for key in range(10):
            mem.put(Entry(key=key, value=str(key), seqnum=key + 1))
        assert [e.key for e in mem.scan(3, 6)] == [3, 4, 5, 6]

    def test_scan_bounds_need_not_have_the_keys_shape(self):
        mem = MemoryComponent()
        for seqnum, key in enumerate(COMPOSITE_KEYS, start=1):
            mem.put(Entry(key=key, value="row", seqnum=seqnum))
        assert [e.key for e in mem.scan(low=2, high=(3, 9))] == COMPOSITE_IN_2_TO_3
        assert [e.key for e in mem.scan(high=1)] == []
        assert [e.key for e in mem.scan(low=(4,))] == [(4, 1), (4, 2)]

    def test_scans_between_writes_share_one_sort(self, monkeypatch):
        """A bounded scan bisects the kept sorted keys: O(log n + k), not a
        sort of the whole component per call (ROADMAP item 4's first
        ``MemoryComponent`` contract)."""
        import builtins

        import repro.lsm.entry as entry_module

        sorts = []

        def counting_sorted(*args, **kwargs):
            sorts.append(len(args[0]))
            return builtins.sorted(*args, **kwargs)

        monkeypatch.setattr(entry_module, "sorted", counting_sorted, raising=False)
        mem = MemoryComponent()
        for key in range(5000, 0, -1):
            mem.put(Entry(key=key, value="v", seqnum=5001 - key))
        for low in range(100, 4100, 40):
            assert [e.key for e in mem.scan(low, low + 9)] == list(range(low, low + 10))
        assert sorts == [5000]  # 100 bounded scans, one sort
        mem.put(Entry(key=7, value="overwritten", seqnum=6000))  # no new key
        assert next(mem.scan(7, 7)).value == "overwritten"
        assert [e.key for e in mem.sorted_entries()] == list(range(1, 5001))
        assert sorts == [5000]
        mem.put(Entry(key=0, value="new", seqnum=6001))  # a new key: one more
        assert [e.key for e in mem.scan(high=2)] == [0, 1, 2]
        entries, hashed = mem.sorted_run()
        assert [e.key for e in entries] == list(range(5001))
        # No put carried a hash, so the flush hands on no column and hashes
        # nothing; the disk component derives one if something reads it.
        assert hashed is None
        flushed = DiskComponent(entries, hashed=hashed, in_key_order=True)
        assert flushed._column is None
        assert list(flushed._hashes) == [hash_key(key) for key in range(5001)]
        assert sorts == [5000, 5001]

    def test_run_is_the_scan_with_its_keys(self):
        mem = MemoryComponent()
        for seqnum, key in enumerate(COMPOSITE_KEYS, start=1):
            mem.put(Entry(key=key, value="row", seqnum=seqnum))
        entries, keys = mem.run(low=2, high=(3, 9))
        assert keys == COMPOSITE_IN_2_TO_3 == [e.key for e in entries]
        assert [id(e) for e in entries] == [id(e) for e in mem.scan(low=2, high=(3, 9))]

    def test_size_grows_with_puts(self):
        mem = MemoryComponent()
        assert mem.size_bytes == 0
        mem.put(Entry(key=1, value="x" * 100, seqnum=1))
        assert mem.size_bytes > 100

    def test_write_after_deactivate_rejected(self):
        mem = MemoryComponent()
        mem.deactivate()
        with pytest.raises(ComponentStateError):
            mem.put(Entry(key=1, value="a", seqnum=1))

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_put_many_refuses_a_hash_column_of_another_length(self, length):
        mem = MemoryComponent()
        mem.put_many(make_entries([7]), [hash_key(7)])
        with pytest.raises(ValueError, match=f"^{length} hashes for 3 entries$"):
            mem.put_many(make_entries([1, 2, 3]), [hash_key(k) for k in range(length)])
        assert list(mem._entries) == [7] and list(mem._hashes) == [hash_key(7)]
        assert mem.size_bytes == make_entries([7])[0].size_bytes

    def test_is_empty(self):
        mem = MemoryComponent()
        assert mem.is_empty
        mem.put(Entry(key=1, value="a", seqnum=1))
        assert not mem.is_empty


class TestReferenceCounting:
    def test_retain_release_cycle(self):
        comp = DiskComponent(make_entries([1, 2]))
        comp.retain()
        assert comp.refcount == 1
        comp.release()
        assert comp.refcount == 0
        assert not comp.is_destroyed  # still active

    def test_release_without_retain_rejected(self):
        comp = DiskComponent(make_entries([1]))
        with pytest.raises(ComponentStateError):
            comp.release()

    def test_deactivate_with_no_readers_destroys_immediately(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        assert comp.is_destroyed

    def test_deactivate_waits_for_readers(self):
        comp = DiskComponent(make_entries([1]))
        comp.retain()
        comp.deactivate()
        assert not comp.is_destroyed
        comp.release()
        assert comp.is_destroyed

    def test_retain_destroyed_rejected(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            comp.retain()


class TestDiskComponent:
    def test_entries_are_sorted_regardless_of_input_order(self):
        comp = DiskComponent(make_entries([5, 1, 3]))
        assert [e.key for e in comp.entries()] == [1, 3, 5]

    def test_min_max_keys(self):
        comp = DiskComponent(make_entries([5, 1, 3]))
        assert comp.min_key == 1
        assert comp.max_key == 5

    def test_empty_component(self):
        comp = DiskComponent([])
        assert len(comp) == 0
        assert comp.min_key is None
        assert comp.get(1) is None

    def test_point_lookup(self):
        comp = DiskComponent(make_entries(range(100)))
        assert comp.get(42).value == "v42"
        assert comp.get(1000) is None

    def test_bloom_filter_rejects_most_absent_keys(self):
        comp = DiskComponent(make_entries(range(500)))
        rejected = sum(1 for key in range(10_000, 11_000) if not comp.may_contain(key))
        assert rejected > 900

    def test_scan_range(self):
        comp = DiskComponent(make_entries(range(20)))
        assert [e.key for e in comp.scan(5, 8)] == [5, 6, 7, 8]

    def test_scan_open_ended(self):
        comp = DiskComponent(make_entries(range(5)))
        assert [e.key for e in comp.scan()] == [0, 1, 2, 3, 4]
        assert [e.key for e in comp.scan(low=3)] == [3, 4]
        assert [e.key for e in comp.scan(high=1)] == [0, 1]

    def test_scan_bounds_need_not_have_the_keys_shape(self):
        comp = DiskComponent(make_entries(COMPOSITE_KEYS))
        assert [e.key for e in comp.scan(low=2, high=(3, 9))] == COMPOSITE_IN_2_TO_3
        assert [e.key for e in comp.scan(high=1)] == []
        assert [e.key for e in comp.scan(low=(4,))] == [(4, 1), (4, 2)]

    def test_scan_of_a_destroyed_component_raises_at_the_call(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            comp.scan()  # no next() needed
        with pytest.raises(ComponentStateError):
            comp.run()

    def test_size_bytes_sums_entries(self):
        entries = make_entries(range(10))
        comp = DiskComponent(entries)
        assert comp.size_bytes == sum(e.size_bytes for e in entries)

    def test_read_after_destroy_rejected(self):
        comp = DiskComponent(make_entries([1]))
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            comp.get(1)

    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda comp: comp.may_contain(1), id="may_contain"),
            pytest.param(lambda comp: comp.bloom, id="bloom"),
            pytest.param(lambda comp: comp.min_key, id="min_key"),
            pytest.param(lambda comp: comp.max_key, id="max_key"),
            pytest.param(len, id="len"),
        ],
    )
    @pytest.mark.parametrize("probed", [False, True], ids=["unprobed", "probed"])
    def test_every_read_of_a_destroyed_component_raises(self, read, probed):
        comp = DiskComponent(make_entries([1, 2, 3]))
        if probed:  # the Bloom filter is built, and released with the rest
            assert comp.may_contain(1)
        comp.deactivate()
        with pytest.raises(ComponentStateError):
            read(comp)

    def test_a_reclaimed_component_releases_its_data(self):
        class Row:
            """A value a weak reference can watch."""

        row = Row()
        probe = weakref.ref(row)
        comp = DiskComponent([Entry(key=1, value=row, seqnum=1)])
        assert comp.may_contain(1)
        size, component_id = comp.size_bytes, comp.component_id
        del row
        comp.deactivate()
        gc.collect()
        assert probe() is None
        assert comp._bloom is None
        assert (comp.size_bytes, comp.component_id) == (size, component_id)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.sets(
            st.one_of(
                st.integers(-20, 20),
                st.tuples(st.integers(-3, 3)),
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            ),
            max_size=30,
        ),
        probes=st.lists(
            st.one_of(
                st.integers(-25, 25),
                st.tuples(st.integers(-4, 4)),
                st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            ),
            max_size=20,
        ),
    )
    def test_point_lookup_answers_as_a_key_to_entry_dict(self, keys, probes):
        entries = make_entries(keys)
        comp = DiskComponent(entries)
        oracle = {entry.key: entry for entry in entries}
        for key in [*keys, *probes]:
            assert comp.get(key) is oracle.get(key)

    def test_tuple_keys_sort_lexicographically(self):
        comp = DiskComponent(
            [
                Entry(key=(2, "a"), value=1, seqnum=1),
                Entry(key=(1, "b"), value=2, seqnum=2),
                Entry(key=(1, "a"), value=3, seqnum=3),
            ]
        )
        assert [e.key for e in comp.entries()] == [(1, "a"), (1, "b"), (2, "a")]


def may_contain_both_sides(reference):
    """``may_contain`` probes of ``reference`` for a key of its own bucket and
    for one of the sibling's (which the prefix alone would answer)."""
    keys = [next(k for k in range(10) if low_bits(hash_key(k), 1) == side) for side in (0, 1)]
    return [partial(reference.may_contain, key) for key in keys]


class TestReferenceDiskComponent:
    def _split_pair(self, keys, depth=1):
        """Build a parent component and the two depth-``depth`` references."""
        parent = DiskComponent(make_entries(keys))
        ref0 = ReferenceDiskComponent(parent, hash_prefix=0, depth=depth)
        ref1 = ReferenceDiskComponent(parent, hash_prefix=1, depth=depth)
        return parent, ref0, ref1

    def test_references_partition_the_parent(self):
        keys = list(range(200))
        parent, ref0, ref1 = self._split_pair(keys)
        keys0 = {e.key for e in ref0.entries()}
        keys1 = {e.key for e in ref1.entries()}
        assert keys0 | keys1 == set(keys)
        assert keys0 & keys1 == set()

    def test_reference_filters_by_hash_prefix(self):
        _, ref0, _ = self._split_pair(range(100))
        for entry in ref0.entries():
            assert low_bits(hash_key(entry.key), 1) == 0

    def test_point_lookup_through_reference(self):
        _, ref0, ref1 = self._split_pair(range(50))
        for key in range(50):
            owner = ref0 if low_bits(hash_key(key), 1) == 0 else ref1
            other = ref1 if owner is ref0 else ref0
            assert owner.get(key) is not None
            assert other.get(key) is None

    def test_reference_pins_target(self):
        parent, ref0, _ref1 = self._split_pair(range(10))
        parent.deactivate()
        assert not parent.is_destroyed  # still referenced by ref0/_ref1
        ref0.deactivate()
        _ref1.deactivate()
        assert parent.is_destroyed

    def test_materialize_produces_real_component(self):
        _, ref0, _ = self._split_pair(range(100))
        real = ref0.materialize()
        assert {e.key for e in real.entries()} == {e.key for e in ref0.entries()}
        assert real.size_bytes == ref0.size_bytes

    def test_referenced_bytes_reports_parent_size(self):
        parent, ref0, _ = self._split_pair(range(100))
        assert ref0.referenced_bytes == parent.size_bytes
        assert ref0.size_bytes < parent.size_bytes

    def test_negative_depth_rejected(self):
        parent = DiskComponent(make_entries([1]))
        with pytest.raises(ValueError):
            ReferenceDiskComponent(parent, hash_prefix=0, depth=-1)

    def test_may_contain_respects_prefix(self):
        _, ref0, _ = self._split_pair(range(100))
        wrong_side = next(k for k in range(100) if low_bits(hash_key(k), 1) == 1)
        assert not ref0.may_contain(wrong_side)

    def test_scan_bounds_need_not_have_the_keys_shape(self):
        parent = DiskComponent(make_entries(COMPOSITE_KEYS))
        everything = ReferenceDiskComponent(parent, hash_prefix=0, depth=0)
        assert [e.key for e in everything.scan(low=2, high=(3, 9))] == COMPOSITE_IN_2_TO_3
        halves = [ReferenceDiskComponent(parent, hash_prefix=bit, depth=1) for bit in (0, 1)]
        kept = [e.key for half in halves for e in half.scan(low=2, high=(3, 9))]
        assert sorted(kept) == COMPOSITE_IN_2_TO_3

    def test_reads_of_a_destroyed_reference_raise_at_the_call(self):
        _, ref0, _ = self._split_pair(range(10))
        ref0.deactivate()
        reads = (ref0.scan, ref0.run, ref0.entries, ref0.hashed_entries, ref0.materialize)
        for read in (*reads, lambda: len(ref0), *may_contain_both_sides(ref0)):
            with pytest.raises(ComponentStateError):
                read()  # scan() itself raises: no next() needed
        with pytest.raises(ComponentStateError):
            ref0.size_bytes
        with pytest.raises(ComponentStateError):
            ref0.get(1)

    def test_reads_through_a_destroyed_target_raise_at_the_call(self):
        parent, ref0, ref1 = self._split_pair(range(10))
        parent.deactivate()
        # Unbalanced releases: the only way a target dies under a live reference.
        parent.release()
        parent.release()
        assert parent.is_destroyed and not ref0.is_destroyed
        reads = (ref0.scan, ref0.run, ref0.entries, ref0.hashed_entries, ref0.materialize)
        for read in (*reads, lambda: len(ref0), *may_contain_both_sides(ref0)):
            with pytest.raises(ComponentStateError):
                read()
        with pytest.raises(ComponentStateError):
            ref1.size_bytes

    def test_empty_target(self):
        ref = ReferenceDiskComponent(DiskComponent([]), hash_prefix=1, depth=1)
        assert list(ref.scan()) == ref.entries() == list(ref.scan(low=0, high=9)) == []
        assert len(ref) == ref.size_bytes == len(ref.materialize()) == 0


# ---------------------------------------------------------------- equivalence
#
# Every reference read filters on the hash column its target kept from its
# Bloom build.  The oracle below re-hashes each key and compares bounds one
# entry at a time, which is what those reads did before the column existed.

_PART = st.integers(-6, 6)
#: Per key shape: (keys of that shape, bounds that need not be stored keys).
_SHAPES = {
    "int": (st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)),
    "str": (st.text(max_size=6), st.text(max_size=6)),
    "tuple": (st.tuples(_PART, _PART), st.one_of(st.tuples(_PART, _PART), _PART, st.tuples(_PART))),
}


@st.composite
def keys_and_bounds(draw):
    """One component's keys (a single shape) plus a ``low`` and a ``high``,
    each ``None``, a stored key, any value of the shape, or a prefix tuple."""
    elements, anywhere = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    keys = draw(st.lists(elements, unique=True, max_size=40))
    bound = st.one_of(st.none(), anywhere, *([st.sampled_from(keys)] if keys else []))
    return keys, draw(bound), draw(bound)


def _ordered(key):
    return key if isinstance(key, tuple) else (key,)


def in_bounds(entry, low, high):
    key = _ordered(entry.key)
    return (low is None or _ordered(low) <= key) and (high is None or key <= _ordered(high))


def owned(target, prefix, depth):
    """Brute force: the target's entries whose re-hashed key falls in the bucket."""
    return [e for e in target.entries() if low_bits(hash_key(e.key), depth) == prefix]


def assert_reads_equal_oracle(reference, low=None, high=None):
    expected = owned(reference.target, reference.hash_prefix, reference.depth)
    bounded = [e for e in expected if in_bounds(e, low, high)]
    assert list(reference.scan(low, high)) == bounded
    assert reference.run(low, high) == (bounded, [e.key for e in bounded])
    assert reference.entries() == expected
    assert len(reference) == len(expected)
    assert reference.size_bytes == sum(e.size_bytes for e in expected)
    assert reference.materialize().entries() == expected


class TestHashColumnEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        case=keys_and_bounds(),
        depth=st.integers(0, 6),
        prefix=st.integers(0, 2**70),
        bits_per_key=st.sampled_from([0, 10]),
    )
    def test_reference_reads_equal_the_rehashing_filter(self, case, depth, prefix, bits_per_key):
        keys, low, high = case
        target = DiskComponent(make_entries(keys), bloom_bits_per_key=bits_per_key)
        bounded = [e for e in target.entries() if in_bounds(e, low, high)]
        assert list(target.scan(low, high)) == bounded
        assert target.run(low, high) == (bounded, [e.key for e in bounded])
        reference = ReferenceDiskComponent(target, prefix, depth)
        assert reference.hash_prefix == low_bits(prefix, depth)
        assert_reads_equal_oracle(reference, low, high)
        # The two children of that bucket are disjoint and tile it.
        children = [
            ReferenceDiskComponent(target, reference.hash_prefix | (bit << depth), depth + 1)
            for bit in (0, 1)
        ]
        for child in children:
            assert_reads_equal_oracle(child, low, high)
        both = children[0].entries() + children[1].entries()
        assert len({id(e) for e in both}) == len(both)
        assert sorted(both, key=lambda e: _ordered(e.key)) == reference.entries()

    @settings(max_examples=60, deadline=None)
    @given(case=keys_and_bounds(), late=st.integers(0, 40))
    def test_resplit_chains_share_the_real_components_column(self, case, late):
        keys, low, high = case
        root = Bucket(ROOT_BUCKET)
        for key in keys[late:]:
            root.tree.insert(key, "older", hash_key(key))
        root.flush()
        for key in keys[:late]:
            root.tree.insert(key, "newer", hash_key(key))
        root.flush()
        real = root.disk_components
        generations = [[root]]
        for _ in range(2):  # split, then split the children: no merge between
            generations.append([c for b in generations[-1] for c in b.split_into()])
        for bucket in generations[1] + generations[2]:
            references = bucket.disk_components
            assert [r.target for r in references] == real
            for reference, component in zip(references, real):
                assert reference.target._hashes is component._hashes
                assert (reference.hash_prefix, reference.depth) == (
                    bucket.bucket_id.prefix,
                    bucket.depth,
                )
                assert_reads_equal_oracle(reference, low, high)
        for generation in generations[1:]:
            scanned = [e for bucket in generation for e in bucket.entries()]
            assert sorted(e.key for e in scanned) == sorted(keys, key=_ordered)
            assert len({id(e) for e in scanned}) == len(scanned)

    @given(
        keys=keys_and_bounds().map(lambda case: case[0]),
        bits_per_key=st.sampled_from([0, 1, 10]),
        column=st.sampled_from([list, lambda hashes: array("Q", hashes)]),
    )
    def test_bloom_built_from_the_column_has_the_same_bits(self, keys, bits_per_key, column):
        hashed = column(hash_key(key) for key in keys)
        given_column = BloomFilter.build(keys, bits_per_key=bits_per_key, hashed=hashed)
        unaided = BloomFilter.build(keys, bits_per_key=bits_per_key)
        assert given_column._bits == unaided._bits
        assert given_column._num_bits == unaided._num_bits
        component = DiskComponent(make_entries(keys), bloom_bits_per_key=bits_per_key)
        assert component.bloom._bits == unaided._bits
        assert list(component._hashes) == [hash_key(e.key) for e in component.entries()]


# ------------------------------------------------------- the carried column
#
# A builder that already has the hashes (and the order) hands them over; the
# component then derives nothing, and builds its Bloom filter on first probe.

_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=8),
    st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=8)), max_size=4),
    st.tuples(st.integers(), st.text(max_size=4)),
)


class TestCarriedColumn:
    @settings(max_examples=100, deadline=None)
    @given(
        keys=keys_and_bounds().map(lambda case: case[0]),
        bits_per_key=st.sampled_from([0, 10]),
        column=st.sampled_from([list, iter, lambda hashes: array("Q", hashes)]),
    )
    def test_a_component_given_its_column_equals_one_that_derives_it(
        self, keys, bits_per_key, column
    ):
        derived = DiskComponent(make_entries(keys), bloom_bits_per_key=bits_per_key)
        in_order = derived.entries()
        given_column = DiskComponent(
            in_order, bloom_bits_per_key=bits_per_key, hashed=column(map(hash_key, derived._keys))
        )
        assert given_column.entries() == in_order
        assert given_column._keys == derived._keys
        assert given_column._hashes == derived._hashes
        assert given_column.size_bytes == derived.size_bytes
        assert [given_column.get(key) for key in keys] == [derived.get(key) for key in keys]
        # Neither has a filter until it is probed, and then the same one an
        # eager build over the keys produces.
        assert given_column._bloom is None and derived._bloom is None
        eager = BloomFilter.build(derived._keys, bits_per_key=bits_per_key)
        for component in (given_column, derived):
            assert component.may_contain("absent") in (True, False)
            bloom = component._bloom
            assert bloom is component.bloom and bloom is not None
            assert all(component.may_contain(key) for key in keys)
            assert bloom._bits == eager._bits
            assert (bloom._num_bits, bloom._num_hashes) == (eager._num_bits, eager._num_hashes)

    def test_a_column_of_another_length_is_rejected(self):
        entries = make_entries([1, 2, 3])
        for column in ([], [hash_key(1), hash_key(2)], [hash_key(k) for k in (1, 2, 3, 4)]):
            with pytest.raises(ValueError, match="hashes for 3"):
                DiskComponent(entries, hashed=column)
            with pytest.raises(ValueError, match="hashes for 3"):
                BloomFilter.build([1, 2, 3], hashed=column)

    @settings(max_examples=100, deadline=None)
    @given(
        case=keys_and_bounds(),
        depth=st.integers(0, 4),
        prefix=st.integers(0, 2**70),
    )
    def test_hashed_entries_is_entries_with_their_hashes(self, case, depth, prefix):
        target = DiskComponent(make_entries(case[0]))
        # Built without a column: a merge carries none, and hashed_entries
        # derives the column on this first read.
        assert target._column is None
        assert target.carried_entries() == (target.entries(), None)
        for component in (target, ReferenceDiskComponent(target, prefix, depth)):
            entries, hashed = component.hashed_entries()
            assert entries == component.entries()
            assert hashed == array("Q", [hash_key(e.key) for e in entries])
            # What a merge builds from them: the references's own slice.
            rebuilt = DiskComponent(entries, hashed=hashed)
            assert rebuilt.entries() == entries and rebuilt._hashes == hashed
        hashed.append(0)  # a copy: the target's column is not the caller's to grow
        assert len(target._hashes) == len(target)

    @settings(max_examples=100, deadline=None)
    @given(
        keys=keys_and_bounds().map(lambda case: case[0]),
        puts=st.lists(st.tuples(st.integers(0, 39), st.booleans()), max_size=60),
    )
    def test_the_memory_component_hands_its_column_to_the_flush(self, keys, puts):
        memory = MemoryComponent()
        first_carried = {}
        for seqnum, (index, carry) in enumerate(puts if keys else []):
            key = keys[index % len(keys)]  # overwrites included
            first_carried.setdefault(key, carry)
            memory.put(Entry(key, "v", seqnum), hashed=hash_key(key) if carry else None)
        entries, hashed = memory.sorted_run()
        assert entries == memory.sorted_entries()
        # The column survives while every new key came with its hash; a new
        # key without one makes the flush hand on no column at all.
        if all(first_carried.values()):
            assert hashed == array("Q", [hash_key(e.key) for e in entries])
        else:
            assert hashed is None
        flushed = DiskComponent(entries, hashed=hashed, in_key_order=True)
        assert flushed.entries() == entries
        assert flushed._hashes == array("Q", [hash_key(e.key) for e in entries])

    @given(
        key=st.one_of(
            st.integers(), st.text(max_size=6), st.tuples(st.integers(), st.text(max_size=3))
        ),
        value=_VALUES,
    )
    def test_an_entry_born_with_its_size_reports_what_a_fresh_one_computes(self, key, value):
        born = Entry(key, value, 1, value_bytes=estimate_value_size(value))
        assert born._size_bytes is not None
        assert born.size_bytes == Entry(key, value, 1).size_bytes
        assert born == Entry(key, value, 1)


# ------------------------------------------------------ the column on first read
#
# A component built without a column (a flush or merge of keys that came
# without their hashes, a received list) derives it from its keys when
# something first reads it.  The oracle is the same history played with a
# component class that derives its column as it is built, as every component
# once did: every answer and every stats counter must be the same.


class EagerDiskComponent(DiskComponent):
    """A disk component that hashes its keys as it is built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        assert len(self._hashes) == len(self._keys)  # the read derives the column


_LAZY_KEY_SHAPES = {
    "int": st.integers(-50, 50),
    "composite": st.tuples(st.sampled_from(["1992-02-27", "1995-06-17"]), st.tuples(_PART, _PART)),
}


@st.composite
def lazy_column_histories(draw):
    """A key pool of one shape and a history over one LSM-tree: writes and
    deletes with and without their hashes, flushes, merges, received lists
    (sorted with their column or unsorted without one), lazy-cleanup
    filters, and reads — point reads, Bloom probes, scans, and a child tree
    of references to every real component, merged."""
    shape = _LAZY_KEY_SHAPES[draw(st.sampled_from(sorted(_LAZY_KEY_SHAPES)))]
    pool = draw(st.lists(shape, min_size=1, max_size=12, unique=True))
    index = st.integers(0, len(pool) - 1)
    operation = st.one_of(
        st.tuples(st.just("write"), index, st.integers(0, 99), st.booleans()),
        st.tuples(st.just("write"), index, st.integers(0, 99), st.booleans()),
        st.tuples(st.just("delete"), index, st.booleans()),
        st.tuples(st.just("flush")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("merge"), st.booleans()),
        st.tuples(st.just("merge"), st.booleans()),
        st.tuples(
            st.just("receive"),
            st.lists(index, min_size=1, max_size=5, unique=True),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("invalidate"), st.integers(0, 3), st.integers(1, 2)),
        st.tuples(st.just("get"), index),
        st.tuples(st.just("probe"), index),
        st.tuples(st.just("scan"), st.none() | index, st.none() | index),
        st.tuples(st.just("references"), st.integers(0, 3), st.integers(0, 2)),
    )
    return pool, draw(st.lists(operation, min_size=8, max_size=40))


def _real_components(trees):
    found = {}
    for tree in trees:
        for component in tree.disk_components:
            real = component.target if isinstance(component, ReferenceDiskComponent) else component
            found[real.component_id] = real
    return found.values()


def play_history(pool, operations, check=None):
    """Run ``operations`` over one tree and return everything it answered and
    the stats of every tree involved; ``check(trees)`` runs after each step."""
    config = LSMConfig(memory_component_bytes=300, bloom_bits_per_key=10)
    tree = LSMTree("lazy", config=config)
    answers, stats, seqnums = [], [], itertools.count(10_000)
    for operation in operations:
        kind = operation[0]
        trees = [tree]
        if kind == "write":
            key = pool[operation[1]]
            tree.insert(key, operation[2], hash_key(key) if operation[3] else None)
            tree.maybe_flush()
        elif kind == "delete":
            key = pool[operation[1]]
            tree.delete(key, hash_key(key) if operation[2] else None)
        elif kind == "flush":
            tree.flush()
        elif kind == "merge":  # of the memory run too, when there is one
            tree.flush()
            merged = tree.merge_all() if operation[1] else tree.maybe_merge()
            answers.append(None if merged is None else merged.entries())
        elif kind == "receive":
            keys, loaded, carry = [pool[i] for i in operation[1]], operation[2], operation[3]
            entries = [Entry(key, "received", next(seqnums)) for key in keys]
            hashed = None
            if carry:  # a moved run: in key order, with its column
                entries.sort(key=lambda e: _ordered(e.key))
                hashed = [hash_key(e.key) for e in entries]
            if loaded:
                tree.add_loaded_component(entries, hashed=hashed)
            else:
                list_id = tree.create_received_list()
                tree.append_to_received_list(list_id, entries, hashed)
                tree.install_received_list(list_id)
        elif kind == "invalidate":
            tree.invalidate_bucket(operation[1], operation[2])
        elif kind == "get":
            answers.append(tree.get_entry(pool[operation[1]]))
        elif kind == "probe":
            key = pool[operation[1]]
            answers.append([c.may_contain(key) for c in tree.disk_components])
        elif kind == "scan":
            low, high = (None if i is None else pool[i] for i in operation[1:])
            answers.append(list(tree.scan(low, high, include_tombstones=True)))
        elif kind == "references":
            child = LSMTree("child", config=config)
            child.disk_components = [
                ReferenceDiskComponent(real, operation[1], operation[2])
                for real in _real_components([tree])
            ]
            for reference in child.disk_components:
                entries, hashed = reference.hashed_entries()
                assert hashed == array("Q", [hash_key(e.key) for e in entries])
            answers.append([list(child.scan())] + [child.get_entry(key) for key in pool])
            merged = child.merge_all()
            answers.append(None if merged is None else merged.entries())
            trees.append(child)
            if check is not None:
                check(trees)
            stats.append(child.stats)
            for component in child.disk_components:
                component.deactivate()
        if check is not None:
            check(trees)
    return answers, stats + [tree.stats]


def assert_columns_are_the_keys_hashes(trees):
    for component in _real_components(trees):
        if component._column is not None:
            assert component._column == array("Q", map(hash_key, component._keys))
        if component._bloom is not None:  # a filter was built: the column was read
            assert component._column is not None


class TestColumnOnFirstRead:
    @settings(max_examples=150, deadline=None)
    @given(history=lazy_column_histories())
    def test_a_lazy_column_answers_as_an_eager_one(self, history):
        pool, operations = history
        lazy = play_history(pool, operations, check=assert_columns_are_the_keys_hashes)
        with mock.patch.object(tree_module, "DiskComponent", EagerDiskComponent):
            eager = play_history(pool, operations)
        assert lazy == eager

    def test_a_merge_with_a_column_less_input_carries_no_column(self):
        tree = LSMTree("mixed", config=LSMConfig(memory_component_bytes=1 << 20))
        for key in (1, 2):
            tree.insert(key, "carried", hash_key(key))
        carried = tree.flush()
        tree.insert(3, "bare")
        bare = tree.flush()
        assert carried._column is not None and bare._column is None
        merged = tree.merge_all()
        assert merged._column is None
        assert merged._keys == [1, 2, 3]
        assert merged._hashes == array("Q", map(hash_key, [1, 2, 3]))
