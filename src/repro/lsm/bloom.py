"""Bloom filters for LSM disk components.

AsterixDB builds a Bloom filter over the key set of every disk component so
point lookups can skip components that certainly do not contain the key
(Section II-B).  The simulator uses a real bit-array Bloom filter — not a
probability model — so lookup behaviour (including false positives) is
faithful and testable.

A point read bisects a component's sorted run first and asks its filter only
about a key the run lacks (:meth:`repro.lsm.tree.LSMTree.get_entry`): a
filter has no false negatives, so for a key the run holds it could only say
"maybe".  A component builds its filter on its first such miss.
"""

from __future__ import annotations

from typing import Any, Collection, Optional, Sequence, Tuple

from ..common.hashutil import hash_key

#: Flag bytes 0 / 1 to the ASCII digits ``int(..., 2)`` reads.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _geometry(expected_keys: int, bits_per_key: int, num_hashes: int) -> Tuple[int, int]:
    """``(num_bits, num_hashes)`` of a filter sized for ``expected_keys``."""
    if not bits_per_key:
        return 0, 0
    return max(8, expected_keys * bits_per_key), num_hashes


class BloomFilter:
    """A standard Bloom filter over record keys.

    Parameters mirror :class:`repro.common.config.LSMConfig`:
    ``bits_per_key`` and ``num_hashes``.  A filter built with
    ``bits_per_key=0`` degenerates to "always maybe", which disables the
    optimization without special-casing callers.

    Bit positions come from Kirsch-Mitzenmacher double hashing:
    ``position_i = (h1 + i * h2) mod bits`` with ``h1 = hash_key(key)`` and
    ``h2 = hash64(h1 ^ 0xA5A5A5A5A5A5A5A5) | 1``.  :meth:`build` and
    :meth:`may_contain` inline that splitmix64 finalizer, as
    :func:`~repro.common.hashutil.hash_key` does, so no key pays a call for
    its step (the first addition's mask reduces ``h1 ^ salt`` mod 2**64, as
    ``hash64`` reduces its input).  Since ``(h1 + i * h2) mod bits ==
    ((h1 mod bits) + i * (h2 mod bits)) mod bits``, they reduce position and
    step once per key and walk ``bit += step``, wrapping by one subtraction,
    on ints below ``2 * bits``.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_num_keys")

    def __init__(self, expected_keys: int, bits_per_key: int = 10, num_hashes: int = 7) -> None:
        if expected_keys < 0:
            raise ValueError("expected_keys must be non-negative")
        if bits_per_key < 0 or num_hashes < 0:
            raise ValueError("bloom parameters must be non-negative")
        self._num_bits, self._num_hashes = _geometry(expected_keys, bits_per_key, num_hashes)
        self._bits = bytearray((self._num_bits + 7) // 8) if self._num_bits else bytearray()
        self._num_keys = 0

    @classmethod
    def build(
        cls,
        keys: Collection[Any],
        bits_per_key: int = 10,
        num_hashes: int = 7,
        hashed: Optional[Sequence[int]] = None,
    ) -> "BloomFilter":
        """Build a filter sized for ``keys`` and populate it.

        ``hashed`` is
        ``hash_key`` of each key, in the same order, when the caller already
        has them (a disk component keeps that column); without it the filter
        hashes the keys itself.  A column of another length than ``keys``
        raises :class:`ValueError`.
        """
        if hashed is None:
            hashed = list(map(hash_key, keys))
        elif len(hashed) != len(keys):
            raise ValueError(f"{len(hashed)} hashes for {len(keys)} keys")
        bloom = cls(len(hashed), bits_per_key=bits_per_key, num_hashes=num_hashes)
        bloom._num_keys = len(hashed)
        num_bits = bloom._num_bits
        if not num_bits:
            return bloom
        # One byte per bit while building, packed once at the end: bit ``i``
        # of the filter is bit ``i & 7`` of byte ``i >> 3``, i.e. bit ``i`` of
        # the little-endian integer whose binary digits are the flags.
        flags = bytearray(num_bits)
        hashes = range(bloom._num_hashes)
        for position in hashed:
            x = ((position ^ 0xA5A5A5A5A5A5A5A5) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            step = ((x ^ (x >> 31)) | 1) % num_bits
            bit = position % num_bits
            for _ in hashes:
                flags[bit] = 1
                bit += step
                if bit >= num_bits:
                    bit -= num_bits
        packed = int(flags[::-1].translate(_FLAG_DIGITS), 2)
        bloom._bits = bytearray(packed.to_bytes(len(bloom._bits), "little"))
        return bloom

    def fits(self, num_keys: int, bits_per_key: int, num_hashes: int) -> bool:
        """True if this filter holds ``num_keys`` keys in the geometry a
        :meth:`build` over that many keys with these parameters would have:
        over the same key set, such a build sets exactly these bits."""
        return self._num_keys == num_keys and (self._num_bits, self._num_hashes) == _geometry(
            num_keys, bits_per_key, num_hashes
        )

    @property
    def num_keys(self) -> int:
        """Number of keys the filter was built over."""
        return self._num_keys

    @property
    def size_bytes(self) -> int:
        """Size of the underlying bit array (0 when disabled)."""
        return len(self._bits)

    def may_contain(self, key: Any, hashed: Optional[int] = None) -> bool:
        """Return False only if ``key`` was definitely never added.

        ``hashed`` is the key's ``hash_key`` when the caller already has it
        (a point lookup hashes its key once for routing and every filter it
        probes); without one the filter computes it.
        """
        num_bits = self._num_bits
        if not num_bits:
            return True
        position = hash_key(key) if hashed is None else hashed
        x = ((position ^ 0xA5A5A5A5A5A5A5A5) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        step = ((x ^ (x >> 31)) | 1) % num_bits
        bit = position % num_bits
        bits = self._bits
        for _ in range(self._num_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit += step
            if bit >= num_bits:
                bit -= num_bits
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BloomFilter(keys={self._num_keys}, bits={self._num_bits})"
