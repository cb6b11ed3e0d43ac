"""Tests for the deterministic partitioning hash functions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.hashutil import hash64, hash_key, low_bits, prefix_matches


class TestHash64:
    def test_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_different_inputs_differ(self):
        assert hash64(1) != hash64(2)

    def test_result_fits_in_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**70):
            assert 0 <= hash64(value) < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_always_in_range(self, value):
        assert 0 <= hash64(value) < 2**64

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=63))
    def test_low_bit_balance_is_roughly_uniform(self, start, _bit):
        # Smoke property: consecutive integers should not all land in the same
        # low-bit class (the mixer avalanches).
        values = [hash64(start + i) & 0xF for i in range(64)]
        assert len(set(values)) > 4


class TestHashKey:
    def test_int_key(self):
        assert hash_key(42) == hash64(42)

    def test_string_key_deterministic(self):
        assert hash_key("customer#000001") == hash_key("customer#000001")

    def test_string_keys_differ(self):
        assert hash_key("a") != hash_key("b")

    def test_bytes_key(self):
        assert hash_key(b"abc") == hash_key(b"abc")

    def test_tuple_key(self):
        assert hash_key((1, "a")) == hash_key((1, "a"))
        assert hash_key((1, "a")) != hash_key(("a", 1))

    def test_float_key(self):
        assert hash_key(3.25) == hash_key(3.25)

    def test_bool_key_matches_int(self):
        assert hash_key(True) == hash_key(1)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            hash_key({"a": 1})

    @given(st.one_of(st.integers(), st.text(), st.tuples(st.integers(), st.text())))
    def test_hash_key_in_64_bit_range(self, key):
        assert 0 <= hash_key(key) < 2**64

    # Routing, bucket membership and every Bloom filter are functions of these
    # values: a change here silently re-homes every record.
    @pytest.mark.parametrize(
        "key, expected",
        [
            (0, 0xE220A8397B1DCDAF),
            (1, 0x910A2DEC89025CC1),
            (-1, 0xE4D971771B652C20),
            (2**63, 0x481EC0A212A9F3DB),
            (2**64 + 5, 0x63033B0CA389C35A),
            (True, 0x910A2DEC89025CC1),
            ("customer#000001", 0x689AC71D3FADA391),
            (b"abc", 0xE71FA2190541574B),
            (3.25, 0xF9B67EDA735C49D7),
            ((1, "a"), 0xEDE0CB18B3C80CB4),
        ],
    )
    def test_golden_vectors(self, key, expected):
        assert hash_key(key) == expected

    @given(st.integers())
    def test_int_fast_path_is_hash64(self, key):
        # Unbounded: negative and wider-than-64-bit ints take the same path.
        assert hash_key(key) == hash64(key)

    def test_int_subclasses_hash_as_their_value(self):
        class Wrapped(int):
            pass

        assert hash_key(True) == hash64(1)
        assert hash_key(False) == hash64(0)
        assert hash_key(Wrapped(42)) == hash64(42)


class TestLowBits:
    def test_depth_zero_is_always_zero(self):
        assert low_bits(0xFFFF, 0) == 0

    def test_low_bits_masks(self):
        assert low_bits(0b10110, 3) == 0b110

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            low_bits(1, -1)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=63))
    def test_low_bits_below_2_pow_depth(self, value, depth):
        assert low_bits(value, depth) < max(1, 2**depth)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=16))
    def test_low_bits_consistent_with_prefix_matches(self, value, depth):
        prefix = low_bits(value, depth)
        assert prefix_matches(value, prefix, depth)

    def test_prefix_matches_rejects_other_class(self):
        # 0b...0 and 0b...1 differ at depth 1.
        assert not prefix_matches(0b10, 0b1, 1)
