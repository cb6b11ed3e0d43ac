"""Tests for entries and size estimation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.entry import Entry, estimate_key_size, estimate_value_size, newest


def recursive_key_size(key):
    """The key-size estimate as one recursive call per tuple part."""
    kind = type(key)
    if kind is int:
        return 8
    if kind is str:
        return len(key)
    if kind is tuple:
        return sum(recursive_key_size(part) for part in key)
    if isinstance(key, tuple):
        return sum(recursive_key_size(part) for part in key)
    if isinstance(key, str):
        return len(key)
    if isinstance(key, bytes):
        return len(key)
    return 8


_KEY_PARTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.none(),
)
_KEYS = st.recursive(_KEY_PARTS, lambda parts: st.lists(parts, max_size=4).map(tuple), max_leaves=12)


class TestSizeEstimation:
    def test_none_value_is_zero(self):
        assert estimate_value_size(None) == 0

    def test_numbers_are_eight_bytes(self):
        assert estimate_value_size(7) == 8
        assert estimate_value_size(3.5) == 8

    def test_bool_is_one_byte(self):
        assert estimate_value_size(True) == 1

    def test_strings_use_length(self):
        assert estimate_value_size("hello") == 5
        assert estimate_value_size(b"hello!") == 6

    def test_dict_counts_field_names_and_values(self):
        row = {"id": 1, "name": "ab"}
        assert estimate_value_size(row) == len("id") + 8 + len("name") + 2

    def test_tuple_sums_members(self):
        assert estimate_value_size((1, "ab")) == 10

    def test_unknown_type_falls_back_to_repr(self):
        class Odd:
            def __repr__(self):
                return "x" * 12

        assert estimate_value_size(Odd()) == 12

    def test_key_size_tuple(self):
        assert estimate_key_size((1, "abc")) == 8 + 3

    def test_key_size_int(self):
        assert estimate_key_size(5) == 8

    def test_key_size_of_the_empty_tuple(self):
        assert estimate_key_size(()) == 0 == estimate_key_size(((), ((),)))

    @given(key=_KEYS)
    def test_the_one_loop_key_size_equals_the_recursive_one(self, key):
        assert estimate_key_size(key) == recursive_key_size(key)


class TestEntry:
    def test_size_includes_overhead(self):
        entry = Entry(key=1, value="abcd", seqnum=1)
        assert entry.size_bytes == 16 + 8 + 4

    def test_tombstone_has_no_value_size(self):
        put = Entry(key=1, value="abcd", seqnum=1)
        tomb = Entry(key=1, value="abcd", seqnum=2, tombstone=True)
        assert tomb.size_bytes < put.size_bytes

    def test_shadows_same_key_newer_seqnum(self):
        older = Entry(key=1, value="a", seqnum=1)
        newer = Entry(key=1, value="b", seqnum=2)
        assert newer.shadows(older)
        assert not older.shadows(newer)

    def test_shadows_requires_same_key(self):
        assert not Entry(key=1, value="a", seqnum=5).shadows(Entry(key=2, value="b", seqnum=1))

    def test_newest_helper(self):
        older = Entry(key=1, value="a", seqnum=1)
        newer = Entry(key=1, value="b", seqnum=2)
        assert newest(older, newer) is newer
        assert newest(newer, older) is newer
        assert newest(None, older) is older
        assert newest(older, None) is older
        assert newest(None, None) is None

    def test_entries_are_slotted_value_objects(self):
        # Entries are immutable *by convention* (the hot write path builds
        # tens of thousands per batch, so the frozen-dataclass setattr tax
        # was retired in PR 4); __slots__ still rejects arbitrary fields and
        # equality keeps value semantics over all four fields.
        entry = Entry(key=1, value="a", seqnum=1)
        try:
            entry.unexpected_attribute = 1
            grew_new_field = True
        except AttributeError:
            grew_new_field = False
        assert not grew_new_field
        assert entry == Entry(key=1, value="a", seqnum=1)
        assert entry != Entry(key=1, value="b", seqnum=1)
        assert entry != Entry(key=1, value="a", seqnum=2)
        assert entry != Entry(key=1, value="a", seqnum=1, tombstone=True)
