"""Deterministic hash functions for partitioning.

Python's builtin ``hash`` is randomised per process for strings, which would
make partition assignment non-deterministic across runs; partitioning must be
a pure function of the key (Section II-A: "A partitioning function
deterministically assigns each record to a node").  We therefore use our own
64-bit mixers.

Two functions are exposed:

* :func:`hash64` — a splitmix64-style avalanche mix for integer keys.
* :func:`hash_key` — hashes arbitrary primary keys (ints, strings, tuples)
  down to a 64-bit value, used by every partitioner in :mod:`repro.hashing`.
"""

from __future__ import annotations

from typing import Any

_MASK64 = (1 << 64) - 1


def hash64(value: int) -> int:
    """Mix a 64-bit integer with the splitmix64 finalizer.

    The finalizer has full avalanche behaviour: flipping any input bit flips
    each output bit with probability ~0.5, which is what makes "take the low
    ``d`` bits" a good bucket function for extendible hashing.
    """
    x = value & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = x ^ (x >> 31)
    return x & _MASK64


def _fnv1a_bytes(data: bytes) -> int:
    """64-bit FNV-1a over a byte string (used for string/tuple keys)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def hash_key(key: Any) -> int:
    """Hash an arbitrary primary key to a 64-bit value.

    Supported key types are the ones the TPC-H substrate and examples use:
    integers, strings, bytes, floats, and tuples of those (composite keys).
    """
    if type(key) is int:
        # The exact-int case is nearly every key the simulator routes, so it
        # skips the isinstance chain and the call into hash64: the same
        # splitmix64 finalizer, inlined (equal to hash64(key) for any int,
        # negative and wider-than-64-bit ones included).  hash64 itself stays
        # as written: it is the calibration kernel of repro.bench.micro.
        x = ((key & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)
    if isinstance(key, bool):
        # bool is an int subclass; hash it as its integer value explicitly so
        # True/1 collide intentionally rather than by accident.
        return hash64(int(key))
    if isinstance(key, int):
        return hash64(key)
    if isinstance(key, float):
        if key.is_integer():
            # Equal to an int (-1.0 == -1), so it hashes as that int: equal
            # keys must route and filter alike.
            return hash_key(int(key))
        # Float hashing is an arithmetic reduction mod 2**61-1, NOT salted by
        # PYTHONHASHSEED (only str/bytes are), so it is process-stable.
        return hash64(hash(key) & _MASK64)  # reprolint: allow[det-builtin-hash] -- hash(float) is unsalted and cross-process stable
    if isinstance(key, str):
        return _fnv1a_bytes(key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fnv1a_bytes(key)
    if isinstance(key, tuple):
        h = 0x345678
        for part in key:
            h = (hash64(h) ^ hash_key(part)) & _MASK64
        return hash64(h)
    raise TypeError(f"unsupported partitioning key type: {type(key).__name__}")


def low_bits(hash_value: int, depth: int) -> int:
    """Return the ``depth`` low-order bits of ``hash_value``.

    Extendible hashing (Section III) defines a bucket by the ``d`` low-order
    bits of the hash; ``depth`` of zero means "the single bucket that covers
    the whole hash space".
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return 0
    return hash_value & ((1 << depth) - 1)


def prefix_matches(hash_value: int, prefix: int, depth: int) -> bool:
    """True if ``hash_value`` belongs to the bucket ``(prefix, depth)``."""
    return low_bits(hash_value, depth) == low_bits(prefix, depth)
