"""Tests for memory, disk, and reference components and their lifecycle."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketed.bucket import Bucket
from repro.common.errors import ComponentStateError
from repro.common.hashutil import hash_key, low_bits
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.lsm.bloom import BloomFilter
from repro.lsm.component import DiskComponent, MemoryComponent, ReferenceDiskComponent
from repro.lsm.entry import Entry, estimate_value_size


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
        assert list(hashed) == [hash_key(key) for key in range(5001)]
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

    def test_tuple_keys_sort_lexicographically(self):
        comp = DiskComponent(
            [
                Entry(key=(2, "a"), value=1, seqnum=1),
                Entry(key=(1, "b"), value=2, seqnum=2),
                Entry(key=(1, "a"), value=3, seqnum=3),
            ]
        )
        assert [e.key for e in comp.entries()] == [(1, "a"), (1, "b"), (2, "a")]


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
        for read in (*reads, lambda: len(ref0)):
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
        for read in (*reads, lambda: len(ref0)):
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
                    bucket.hash_prefix,
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
        assert given_column.num_keys == unaided.num_keys == len(keys)
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
            assert bloom.num_keys == eager.num_keys == len(keys)
            assert bloom.size_bytes == eager.size_bytes

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
        for seqnum, (index, carry) in enumerate(puts if keys else []):
            key = keys[index % len(keys)]  # overwrites included
            memory.put(Entry(key, "v", seqnum), hashed=hash_key(key) if carry else None)
        entries, hashed = memory.sorted_run()
        assert entries == memory.sorted_entries()
        assert hashed == array("Q", [hash_key(e.key) for e in entries])

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
