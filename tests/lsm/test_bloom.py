"""Tests for the Bloom filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.lsm.bloom as bloom_module
from repro.common.hashutil import hash64, hash_key
from repro.lsm.bloom import BloomFilter


def reference_positions(key, num_bits, num_hashes):
    """Kirsch-Mitzenmacher double hashing, as the filter is specified."""
    h1 = hash_key(key)
    h2 = hash64(h1 ^ 0xA5A5A5A5A5A5A5A5) | 1
    return [(h1 + i * h2) % num_bits for i in range(num_hashes)]


def reference_filter(keys, bits_per_key, num_hashes):
    """(bit array, membership test) built from the reference formula alone."""
    num_bits = max(8, len(keys) * bits_per_key) if bits_per_key else 0
    bits = bytearray((num_bits + 7) // 8)
    for key in keys:
        for pos in reference_positions(key, num_bits, num_hashes) if num_bits else ():
            bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(key):
        return not num_bits or all(
            bits[pos >> 3] & (1 << (pos & 7))
            for pos in reference_positions(key, num_bits, num_hashes)
        )

    return bits, may_contain


bloom_keys = st.one_of(
    st.integers(),
    st.text(max_size=12),
    st.tuples(st.integers(), st.text(max_size=6)),
)


class TestBloomFilter:
    def test_added_keys_are_always_maybe_present(self):
        bloom = BloomFilter(expected_keys=100)
        for key in range(100):
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in range(100))

    def test_build_classmethod(self):
        bloom = BloomFilter.build(["a", "b", "c"])
        assert bloom.num_keys == 3
        assert bloom.may_contain("a")

    def test_most_absent_keys_are_rejected(self):
        bloom = BloomFilter.build(range(1000), bits_per_key=10, num_hashes=7)
        false_positives = sum(1 for key in range(10_000, 20_000) if bloom.may_contain(key))
        # With 10 bits/key the theoretical FP rate is ~1%; allow generous slack.
        assert false_positives < 500

    def test_disabled_filter_always_says_maybe(self):
        bloom = BloomFilter(expected_keys=10, bits_per_key=0)
        assert bloom.may_contain("never added")
        assert bloom.size_bytes == 0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_keys=-1)
        with pytest.raises(ValueError):
            BloomFilter(expected_keys=1, bits_per_key=-1)

    def test_size_scales_with_keys(self):
        small = BloomFilter(expected_keys=10)
        large = BloomFilter(expected_keys=10_000)
        assert large.size_bytes > small.size_bytes

    def test_string_and_tuple_keys(self):
        bloom = BloomFilter.build([("a", 1), ("b", 2), "plain"])
        assert bloom.may_contain(("a", 1))
        assert bloom.may_contain("plain")

    @given(st.lists(st.integers(), min_size=1, max_size=200, unique=True))
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter.build(keys)
        assert all(bloom.may_contain(key) for key in keys)

    @given(
        keys=st.lists(bloom_keys, max_size=60, unique=True),
        probes=st.lists(bloom_keys, max_size=60),
        bits_per_key=st.sampled_from([0, 1, 3, 10]),
        num_hashes=st.integers(min_value=0, max_value=9),
    )
    def test_matches_the_reference_formula(self, keys, probes, bits_per_key, num_hashes):
        # Zero or one key at 1-3 bits per key lands on the 8-bit minimum;
        # bits_per_key=0 is the disabled filter.
        expected_bits, expected_may_contain = reference_filter(keys, bits_per_key, num_hashes)
        built = BloomFilter.build(keys, bits_per_key=bits_per_key, num_hashes=num_hashes)
        added = BloomFilter(len(keys), bits_per_key=bits_per_key, num_hashes=num_hashes)
        for key in keys:
            added.add(key)
        assert built._bits == added._bits == expected_bits
        assert built.num_keys == added.num_keys == len(keys)
        for key in keys + probes:
            expected = expected_may_contain(key)
            assert built.may_contain(key) is expected
            # The hash a point lookup carries down is the one the filter
            # would compute itself.
            assert built.may_contain(key, hash_key(key)) is expected

    def test_eight_bit_minimum(self):
        bloom = BloomFilter.build([7], bits_per_key=1, num_hashes=3)
        assert bloom.size_bytes == 1
        assert bloom._bits == reference_filter([7], 1, 3)[0]
        assert bloom.may_contain(7)


class TestBuiltOnSmallInts:
    """``build``, ``add`` and ``may_contain`` reduce position and step modulo
    the bit count once per key and wrap by subtraction; the bits are those of
    the unreduced ``(h1 + i * h2) mod bits``."""

    @pytest.mark.parametrize("count", [0, 1, 2, 150])
    @pytest.mark.parametrize("num_hashes", [0, 1, 7])
    @pytest.mark.parametrize("bits_per_key", [0, 1, 10])
    def test_build_yields_the_bytes_a_loop_of_add_yields(self, bits_per_key, num_hashes, count):
        keys = [key * 7919 - 300 for key in range(count)]
        hashed = [hash_key(key) for key in keys]
        if count == 150:
            assert min(hashed) < 2**63 <= max(hashed)
        built = BloomFilter.build(keys, bits_per_key, num_hashes, hashed=hashed)
        added = BloomFilter(count, bits_per_key=bits_per_key, num_hashes=num_hashes)
        for key in keys:
            added.add(key)
        assert bytes(built._bits) == bytes(added._bits)
        assert built._bits == reference_filter(keys, bits_per_key, num_hashes)[0]
        assert isinstance(built._bits, bytearray)  # a later ``add`` still lands
        for key, carried in zip(keys, hashed, strict=True):
            assert built.may_contain(key) and built.may_contain(key, carried)
            assert added.may_contain(key, carried)

    @pytest.mark.parametrize("num_bits_for", [1, 3, 64])
    def test_hashes_at_and_beyond_two_to_the_63(self, num_bits_for):
        hashed = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
        keys = [None] * len(hashed)  # never looked at: the column is given
        built = BloomFilter.build(keys, num_bits_for, 7, hashed=hashed)
        num_bits = max(8, len(hashed) * num_bits_for)
        expected = bytearray((num_bits + 7) // 8)
        for h1 in hashed:
            h2 = hash64(h1 ^ 0xA5A5A5A5A5A5A5A5) | 1
            for i in range(7):
                position = (h1 + i * h2) % num_bits
                expected[position >> 3] |= 1 << (position & 7)
        assert built._bits == expected
        assert all(built.may_contain(None, h1) for h1 in hashed)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(0, 9))
    def test_the_walk_wraps_exactly_as_the_modulus_does(self, h1, count, num_hashes):
        built = BloomFilter.build([None] * count, 3, num_hashes, hashed=[h1] * count)
        num_bits = max(8, count * 3)
        h2 = hash64(h1 ^ 0xA5A5A5A5A5A5A5A5) | 1
        positions = {(h1 + i * h2) % num_bits for i in range(num_hashes)}
        assert {
            bit for bit in range(len(built._bits) * 8) if built._bits[bit >> 3] & (1 << (bit & 7))
        } == positions


class TestSplitmixInlined:
    """``build``, ``add`` and ``may_contain`` inline the splitmix64 step mix:
    no per-key call into ``hash64``, and the bits of the formula that calls it."""

    def test_the_filter_does_not_call_hash64(self):
        assert "hash64" not in vars(bloom_module)

    @pytest.mark.parametrize("num_hashes", [0, 1, 7])
    @pytest.mark.parametrize("bits_per_key", [0, 1, 10])
    def test_every_path_sets_the_formula_bits_for_high_hashes(self, bits_per_key, num_hashes):
        hashed = [2**63, 2**63 + 1, 2**64 - 1, 0xA5A5A5A5A5A5A5A5, 2**63 - 1, 12345]
        keys = [f"k{i}" for i in range(len(hashed))]
        num_bits = max(8, len(hashed) * bits_per_key) if bits_per_key else 0
        expected = bytearray((num_bits + 7) // 8)
        for h1 in hashed:
            h2 = hash64(h1 ^ 0xA5A5A5A5A5A5A5A5) | 1
            for i in range(num_hashes if num_bits else 0):
                position = (h1 + i * h2) % num_bits
                expected[position >> 3] |= 1 << (position & 7)
        built = BloomFilter.build(keys, bits_per_key, num_hashes, hashed=hashed)
        assert built._bits == expected
        assert all(built.may_contain(key, h1) for key, h1 in zip(keys, hashed, strict=True))
        added = BloomFilter(len(keys), bits_per_key, num_hashes)
        for key in keys:
            added.add(key)
        assert added._bits == reference_filter(keys, bits_per_key, num_hashes)[0]
