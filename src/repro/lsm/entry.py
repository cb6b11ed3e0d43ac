"""Record and entry types used by the LSM storage substrate.

An *entry* is what an LSM component stores: a key, an optional value, a
sequence number that orders writes to the same key, and a tombstone flag for
deletes (LSM-trees implement deletes out-of-place by writing a tombstone that
shadows older entries; the record physically disappears only when a merge
drops it, Section II-B).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Collection, List, Optional, Sequence, Tuple

# Rough per-field byte estimates used when a record does not carry an explicit
# size.  These only need to be stable, not exact: the cost model cares about
# relative sizes of buckets and components.
_BASE_RECORD_OVERHEAD = 16


def estimate_value_size(value: Any) -> int:
    """Estimate the serialized size in bytes of a record value.

    Supports the value shapes used throughout the library: ``None`` (key-only
    indexes), numbers, strings, bytes, and flat dict/tuple/list rows such as
    the TPC-H tuples produced by :mod:`repro.tpch.datagen`.

    The exact-type checks up front are a fast path for the overwhelmingly
    common cases (this function sizes every ingested row once); a row's
    ``str``/``int``/``float`` fields are sized inline, without a call each.
    Subclasses fall through to the original ``isinstance`` chain with the
    same precedence, so e.g. ``bool`` still counts as 1 byte, not 8.
    """
    kind = type(value)
    if kind is int:
        return 8
    if kind is str:
        return len(value)
    if kind is float:
        return 8
    if kind is dict:
        total = 0
        for field_name, field_value in value.items():
            total += len(field_name) if type(field_name) is str else len(str(field_name))
            field_kind = type(field_value)
            if field_kind is str:
                total += len(field_value)
            elif field_kind is int or field_kind is float:
                total += 8
            else:
                total += estimate_value_size(field_value)
        return total
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        total = 0
        for field_name, field_value in value.items():
            total += len(str(field_name)) + estimate_value_size(field_value)
        return total
    if isinstance(value, (tuple, list)):
        return sum(estimate_value_size(item) for item in value)
    # Fall back to the repr length for exotic values; better than raising in
    # the middle of an ingestion run.
    return len(repr(value))


def estimate_key_size(key: Any) -> int:
    """Estimate the serialized size in bytes of a key.

    A composite key is sized in one loop: its ``int`` and ``str`` parts
    inline, and only a nested tuple or another kind of part by a call.
    """
    kind = type(key)
    if kind is int:
        return 8
    if kind is str:
        return len(key)
    if isinstance(key, tuple):
        total = 0
        for part in key:
            part_kind = type(part)
            if part_kind is int:
                total += 8
            elif part_kind is str:
                total += len(part)
            else:
                total += estimate_key_size(part)
        return total
    if isinstance(key, str):
        return len(key)
    if isinstance(key, bytes):
        return len(key)
    return 8


def sort_key(key: Any) -> Tuple:
    """Normalise keys for ordering so mixed int/tuple keys never compare raw.

    Within one index all keys have the same shape, but tests exercise edge
    cases; wrapping keys in a tuple keeps comparisons well-defined.  Every
    component sort, range bound and scan heap orders keys through this.
    """
    if isinstance(key, tuple):
        return key
    return (key,)


def sort_order(keys: Sequence[Any]) -> Tuple[List[int], Sequence[Any]]:
    """``(order, ranks)``: the positions of ``keys`` in :func:`sort_key` order,
    and the column the sort compared (``keys``, or ``map(sort_key, keys)``).

    One *stable* sort: equal keys keep their positions' order.  Keys of one
    shape — all tuples or none, which is every index outside the edge-case
    tests — already compare as their ``sort_key`` forms do (``(a,) < (b,)`` is
    ``a < b``), so they are sorted raw, with no per-key call.  A column that
    mixes the shapes cannot get through that way: somewhere in the sorted
    order a tuple sits next to a non-tuple, a sort has to compare that pair,
    and ``1 < (1,)`` raises; only then is every key normalised.
    """
    try:
        return sorted(range(len(keys)), key=keys.__getitem__), keys
    except TypeError:
        ranks = list(map(sort_key, keys))
        return sorted(range(len(ranks)), key=ranks.__getitem__), ranks


class Entry:
    """One versioned key/value pair stored in an LSM component.

    ``seqnum`` is assigned by the owning LSM-tree and strictly increases with
    write order within one partition; reconciliation across components always
    prefers the entry with the larger sequence number.

    A hand-rolled ``__slots__`` value class rather than a frozen dataclass:
    entry construction sits on the per-record write path, and the generated
    frozen ``__init__`` routes every field through ``object.__setattr__``.
    Entries are immutable by convention — nothing in the storage engine
    rewrites one after construction.
    """

    __slots__ = ("key", "value", "seqnum", "tombstone", "_size_bytes")

    def __init__(
        self,
        key: Any,
        value: Any,
        seqnum: int,
        tombstone: bool = False,
        value_bytes: Optional[int] = None,
    ) -> None:
        """``value_bytes`` is ``estimate_value_size(value)`` when the writer
        already sized the row; the entry is then born knowing its size."""
        self.key = key
        self.value = value
        self.seqnum = seqnum
        self.tombstone = tombstone
        if value_bytes is None:
            self._size_bytes: Optional[int] = None
        elif type(key) is int:  # estimate_key_size's first case, inline
            self._size_bytes = _BASE_RECORD_OVERHEAD + 8 + value_bytes
        else:
            self._size_bytes = _BASE_RECORD_OVERHEAD + estimate_key_size(key) + value_bytes

    @property
    def size_bytes(self) -> int:
        """Estimated on-disk size of this entry.

        Memoized: an entry's size is read on every memory-component put,
        flush, merge, and scan it participates in, and the estimate walks the
        whole value.
        """
        size = self._size_bytes
        if size is None:
            size = self._size_bytes = (
                _BASE_RECORD_OVERHEAD
                + estimate_key_size(self.key)
                + (0 if self.tombstone else estimate_value_size(self.value))
            )
        return size

    def shadows(self, other: "Entry") -> bool:
        """True if this entry supersedes ``other`` (same key, newer write)."""
        return self.key == other.key and self.seqnum >= other.seqnum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return (
            self.key == other.key
            and self.value == other.value
            and self.seqnum == other.seqnum
            and self.tombstone == other.tombstone
        )

    def __hash__(self) -> int:
        # Same semantics the frozen dataclass generated: a tuple hash over
        # the fields (and therefore a TypeError for dict-valued entries).
        return hash((self.key, self.value, self.seqnum, self.tombstone))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "DEL" if self.tombstone else "PUT"
        return f"Entry({kind} {self.key!r}@{self.seqnum})"


_memoised_size = attrgetter("_size_bytes")


def total_size_bytes(entries: Collection[Entry]) -> int:
    """Sum of ``size_bytes`` over ``entries``.

    Every entry that went through a write or a component build has its size
    memoised, so the sum reads the slot in one C-level pass; an entry that was
    never sized makes that pass fail, and the property then sizes each.
    """
    try:
        return sum(map(_memoised_size, entries))
    except TypeError:
        return sum(entry.size_bytes for entry in entries)


def newest(first: Optional[Entry], second: Optional[Entry]) -> Optional[Entry]:
    """Return whichever entry is newer, treating ``None`` as absent."""
    if first is None:
        return second
    if second is None:
        return first
    return first if first.seqnum >= second.seqnum else second
