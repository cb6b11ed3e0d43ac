"""LSM components: in-memory, immutable on-disk, and reference components.

Three component kinds are modelled, matching Sections II-B and IV of the
paper:

* :class:`MemoryComponent` — the mutable in-memory buffer of an LSM-tree.
* :class:`DiskComponent` — an immutable sorted run produced by a flush or a
  merge, with a Bloom filter over its keys.
* :class:`ReferenceDiskComponent` — the split mechanism of Algorithm 1: a
  component that stores no data of its own and instead points at a real disk
  component, filtering entries by the owning bucket's hash prefix.  This is
  how a bucket split avoids rewriting any data.

All components are *reference counted* (Section IV, "we use reference
counting for concurrency handling"): readers and writers retain a component
before using it and release it afterwards; a component is only reclaimed once
it has been deactivated (dropped from its index) **and** its reference count
reaches zero.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..common.errors import ComponentStateError
from ..common.hashutil import hash_key, low_bits
from .bloom import BloomFilter
from .entry import Entry, sort_key, sort_order, total_size_bytes

_component_ids = itertools.count(1)
_key_of = attrgetter("key")


def next_component_id() -> int:
    """Return a process-wide unique component id (used for naming/debugging)."""
    return next(_component_ids)


def _key_bounds(keys: Sequence[Any], low: Any, high: Any) -> Tuple[int, int]:
    """``(start, stop)`` of the slice of ``keys`` (ordered by :func:`sort_key`)
    with ``low <= key <= high``; ``None`` leaves that end open.  Bounds need
    not have the keys' shape: ``2`` and ``(3, 9)`` both bound 2-tuples."""
    start = 0 if low is None else bisect_left(keys, sort_key(low), key=sort_key)
    stop = len(keys) if high is None else bisect_right(keys, sort_key(high), key=sort_key)
    return start, stop


class ReferenceCounted:
    """Mixin implementing the retain/release/deactivate lifecycle."""

    def __init__(self) -> None:
        self._refcount = 0
        self._active = True
        self._destroyed = False

    @property
    def refcount(self) -> int:
        return self._refcount

    @property
    def is_destroyed(self) -> bool:
        """Destroyed components have been reclaimed and must not be touched."""
        return self._destroyed

    def _check_live(self) -> None:
        """Refuse a read of a reclaimed component (its data is released)."""
        if self._destroyed:
            raise ComponentStateError("component already destroyed")

    def retain(self) -> None:
        """Pin the component so it cannot be reclaimed while in use."""
        if self._destroyed:
            raise ComponentStateError("cannot retain a destroyed component")
        self._refcount += 1

    def release(self) -> None:
        """Unpin the component; reclaims it if it was already deactivated."""
        if self._refcount <= 0:
            raise ComponentStateError("release without matching retain")
        self._refcount -= 1
        if self._refcount == 0 and not self._active:
            self._destroy()

    def deactivate(self) -> None:
        """Remove the component from visibility; reclaim when unreferenced."""
        self._active = False
        if self._refcount == 0:
            self._destroy()

    def _destroy(self) -> None:
        self._destroyed = True


class MemoryComponent(ReferenceCounted):
    """The mutable in-memory component of an LSM-tree.

    Entries are kept in a key -> entry dict (only the newest entry per key is
    retained, like a real memtable); the sorted order needed by a flush or a
    scan is produced on demand and kept until a write adds a new key.
    """

    def __init__(self) -> None:
        super().__init__()
        self.component_id = next_component_id()
        self._entries: Dict[Any, Entry] = {}
        #: ``hash_key`` of every key of ``_entries``, in the dict's (insertion)
        #: order, 8 bytes each — kept for as long as every new key arrives
        #: with its hash; ``None`` once one did not (the flush then hashes the
        #: keys itself, once, as it always did).
        self._hashes: Optional[array] = array("Q")
        #: The keys in :func:`sort_key` order and the position of each in the
        #: dict's (insertion) order: made by the first scan or flush that asks,
        #: dropped by the next ``put`` of a *new* key (an overwrite changes
        #: neither), so scans between writes share one sort.
        self._sorted: Optional[Tuple[List[Any], List[int]]] = None
        self._size_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        """Estimated bytes held by the component (grows monotonically)."""
        return self._size_bytes

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def check_writable(self) -> None:
        """Raise :class:`ComponentStateError` if the component is deactivated."""
        if not self._active:
            raise ComponentStateError("cannot write to a deactivated memory component")

    def put(
        self, entry: Entry, size_bytes: Optional[int] = None, hashed: Optional[int] = None
    ) -> None:
        """Insert or overwrite one entry (a single write, a tombstone or a
        replicated record; batches go through :meth:`put_many`).

        ``size_bytes`` lets the write path pass the entry size it already
        computed for stats accounting.  The memtable replaces in place but
        the byte counter stays monotone (a real memtable arena does not
        shrink on overwrite).  ``hashed`` is ``hash_key(entry.key)`` when the
        writer routed on it; the flush hands it on to the disk component.
        """
        if not self._active:
            raise ComponentStateError("cannot write to a deactivated memory component")
        entries = self._entries
        key = entry.key
        if key not in entries:
            self._sorted = None
            if self._hashes is not None:
                if hashed is None:
                    self._hashes = None
                else:
                    self._hashes.append(hashed)
        entries[key] = entry
        self._size_bytes += entry.size_bytes if size_bytes is None else size_bytes

    def put_many(self, entries: Sequence[Entry], hashes: Optional[Sequence[int]] = None) -> int:
        """:meth:`put` each of ``entries`` in order; returns the bytes added.

        ``hashes`` is the ``hash_key`` of every entry's key, aligned with
        ``entries``, or ``None`` when the writer has none.  The rules are
        :meth:`put`'s: a deactivated component raises before anything is
        written, only a *new* key drops the cached sort and grows the hash
        column (a key repeated in the batch is new once), a new key without
        a hash drops the column, and the byte counter grows by every entry.
        """
        if not self._active:
            raise ComponentStateError("cannot write to a deactivated memory component")
        table = self._entries
        before = len(table)
        for entry in entries:
            table[entry.key] = entry
        grown = len(table) - before
        if grown:
            self._sorted = None
            column = self._hashes
            if column is not None:
                if hashes is None:
                    self._hashes = None
                elif grown == len(entries):
                    column.extend(hashes)
                else:
                    # The new keys are the table's last ``grown``, in the
                    # order the batch first wrote them.
                    hash_of = dict(zip(map(_key_of, entries), hashes))
                    fresh = list(itertools.islice(reversed(table), grown))
                    fresh.reverse()
                    column.extend(map(hash_of.__getitem__, fresh))
        added = total_size_bytes(entries)
        self._size_bytes += added
        return added

    def get(self, key: Any) -> Optional[Entry]:
        """Return the newest entry for ``key`` or ``None`` if absent."""
        return self._entries.get(key)

    def get_many(self, keys: Iterable[Any]) -> List[Optional[Entry]]:
        """:meth:`get` for each of ``keys``, in order."""
        return list(map(self._entries.get, keys))

    def _sorted_keys(self) -> Tuple[List[Any], List[int]]:
        """``(keys, order)``: the keys in :func:`sort_key` order and where each
        sits in insertion order — one stable sort per run of writes that add
        keys, however many scans read it."""
        cached = self._sorted
        if cached is None:
            keys = list(self._entries)
            order, _ = sort_order(keys)
            cached = self._sorted = (list(map(keys.__getitem__, order)), order)
        return cached

    def sorted_entries(self) -> List[Entry]:
        """All entries ordered by key."""
        return list(map(self._entries.__getitem__, self._sorted_keys()[0]))

    def sorted_run(self) -> Tuple[List[Entry], array]:
        """What a flush writes out: all entries ordered by key, and the
        ``hash_key`` of each in the same order (the kept column permuted with
        the sort; keys that arrived without a hash are hashed here)."""
        keys, order = self._sorted_keys()
        hashes = self._hashes
        column = map(hash_key, keys) if hashes is None else map(hashes.__getitem__, order)
        return self.sorted_entries(), array("Q", column)

    def run(self, low: Any = None, high: Any = None) -> Tuple[List[Entry], List[Any]]:
        """The entries with ``low <= key <= high`` in key order and their keys
        (ordered and bounded through :func:`sort_key`, exactly as a disk
        component is): a bisected slice of the kept sorted keys."""
        keys = self._sorted_keys()[0]
        start, stop = _key_bounds(keys, low, high)
        keys = keys[start:stop]
        return list(map(self._entries.__getitem__, keys)), keys

    def scan(self, low: Any = None, high: Any = None) -> Iterator[Entry]:
        """Iterate the entries with ``low <= key <= high`` in key order."""
        return iter(self.run(low, high)[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryComponent(id={self.component_id}, entries={len(self)})"


class DiskComponent(ReferenceCounted):
    """An immutable sorted run of entries, the unit of LSM disk storage: the
    entries, their keys and their keys' hashes as three aligned columns,
    released when the component is reclaimed."""

    def __init__(
        self,
        entries: Iterable[Entry],
        bloom_bits_per_key: int = 10,
        bloom_num_hashes: int = 7,
        hashed: Optional[Iterable[int]] = None,
    ) -> None:
        """``hashed`` is the ``hash_key`` of every entry's key, in order, when
        the builder carried them here (a flush, a merge, a bucket move).  The
        entries are then by contract already in :func:`sort_key` order and
        the constructor neither sorts nor hashes; a column of another length
        raises :class:`ValueError`.  Without one it does both itself."""
        super().__init__()
        self.component_id = next_component_id()
        entry_list = list(entries)
        if hashed is None:
            entry_list.sort(key=lambda e: sort_key(e.key))
        self._entries: List[Entry] = entry_list
        self._keys: List[Any] = [e.key for e in entry_list]
        #: ``hash_key`` of every stored key, aligned with ``_entries`` and
        #: ``_keys`` (8 bytes each): what the Bloom build, every reference
        #: component's prefix filter and the next merge or move read.
        self._hashes = array("Q", map(hash_key, self._keys) if hashed is None else hashed)
        if len(self._hashes) != len(entry_list):
            raise ValueError(f"{len(self._hashes)} hashes for {len(entry_list)} entries")
        self._size_bytes = total_size_bytes(entry_list)
        #: Built from the column on the first probe that misses: a read asks
        #: the filter only about a key the sorted run lacks, a bulk load never
        #: probes, and most components are merged away before anyone reads
        #: them.
        self._bloom: Optional[BloomFilter] = None
        self._bloom_params = (bloom_bits_per_key, bloom_num_hashes)

    def __len__(self) -> int:
        self._check_live()
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def bloom(self) -> BloomFilter:
        """The Bloom filter over the stored keys, built from the hash column
        when first asked for (by a read, on its first miss here)."""
        self._check_live()
        bloom = self._bloom
        if bloom is None:
            bits_per_key, num_hashes = self._bloom_params
            bloom = self._bloom = BloomFilter.build(
                self._keys, bits_per_key=bits_per_key, num_hashes=num_hashes, hashed=self._hashes
            )
        return bloom

    @property
    def min_key(self) -> Optional[Any]:
        self._check_live()
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[Any]:
        self._check_live()
        return self._keys[-1] if self._keys else None

    def may_contain(self, key: Any, hashed: Optional[int] = None) -> bool:
        """Bloom-filter check; False means the key is definitely absent.

        ``hashed`` is ``hash_key(key)`` when the caller already has it.  A
        read asks only after :meth:`get` missed, so a component that meets
        only keys it holds never builds its filter.
        """
        bloom = self._bloom
        if bloom is None:  # not built yet, or released by a reclaim
            bloom = self.bloom
        return bloom.may_contain(key, hashed)

    def get(self, key: Any, hashed: Optional[int] = None) -> Optional[Entry]:
        """Point lookup by bisection of the sorted keys (``hashed`` is accepted
        so a probe calls real and reference components alike).  Keys of one
        shape compare raw as their :func:`sort_key` forms do; a probe that
        meets the other shape raises ``TypeError`` and is bisected again by
        :func:`sort_key`, where ``1`` and ``(1,)`` tie (see :func:`sort_order`).
        A probe that meets a key it cannot be ordered against even so
        (``"a"`` among int keys) equals no stored key: a miss."""
        if self._destroyed:
            raise ComponentStateError("component already destroyed")
        keys = self._keys
        try:
            position = bisect_left(keys, key)
            if keys[position] == key:
                return self._entries[position]
        except IndexError:  # past the last key
            pass
        except TypeError:
            try:
                start, stop = _key_bounds(keys, key, key)
            except TypeError:
                return None
            return next((self._entries[i] for i in range(start, stop) if keys[i] == key), None)
        return None

    def _bounds(self, low: Any, high: Any) -> Tuple[int, int]:
        """The ``low <= key <= high`` slice of the sorted run, by bisection."""
        return _key_bounds(self._keys, low, high)

    def run(self, low: Any = None, high: Any = None) -> Tuple[List[Entry], List[Any]]:
        """The entries with ``low <= key <= high`` in key order and their
        keys: the same slice of both aligned columns.  A destroyed component
        raises :class:`ComponentStateError`."""
        self._check_live()
        start, stop = self._bounds(low, high)
        return self._entries[start:stop], self._keys[start:stop]

    def scan(self, low: Any = None, high: Any = None) -> Iterator[Entry]:
        """Iterate entries with ``low <= key <= high`` in key order.

        A destroyed component raises :class:`ComponentStateError` at the
        call, not at the first ``next()``.
        """
        return iter(self.run(low, high)[0])

    def entries(self) -> List[Entry]:
        """All entries in key order (used by merges and rebalance scans)."""
        self._check_live()
        return list(self._entries)

    def hashed_entries(self) -> Tuple[List[Entry], array]:
        """:meth:`entries` and the ``hash_key`` of each, in the same order
        (what a merge or a bucket move carries into the component it builds)."""
        return self.entries(), array("Q", self._hashes)

    def _destroy(self) -> None:
        """Release the columns and any Bloom filter; only scalars stay."""
        super()._destroy()
        self._entries = []
        self._keys = []
        self._hashes = array("Q")
        self._bloom = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiskComponent(id={self.component_id}, entries={len(self._entries)}, bytes={self._size_bytes})"


class ReferenceDiskComponent(ReferenceCounted):
    """A disk component that only *points* at another component.

    Created by bucket splits (Algorithm 1): the two child buckets receive
    reference components pointing at the parent's disk components, filtered by
    the child bucket's hash prefix and depth.  All reads through a reference
    component apply that filter; the real rewrite of data is postponed to the
    next merge.
    """

    def __init__(self, target: DiskComponent, hash_prefix: int, depth: int) -> None:
        super().__init__()
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.component_id = next_component_id()
        self._target = target
        self.hash_prefix = low_bits(hash_prefix, depth)
        self.depth = depth
        self._mask = (1 << depth) - 1
        # The reference pins its target so a concurrent merge/cleanup of the
        # parent bucket cannot reclaim it from under us.
        target.retain()
        self._released_target = False

    @property
    def target(self) -> DiskComponent:
        return self._target

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    @property
    def size_bytes(self) -> int:
        """Estimated bytes *belonging to this bucket* inside the target.

        With a uniform hash, a reference at depth ``d`` over a parent written
        at depth ``d-1`` owns about half the parent's bytes.  We return the
        exact filtered size, which is what the rebalance planner needs.
        """
        return sum(e.size_bytes for e in self.scan())

    @property
    def referenced_bytes(self) -> int:
        """Bytes of the *target* component (what a scan must read through)."""
        return self._target.size_bytes

    def may_contain(self, key: Any, hashed: Optional[int] = None) -> bool:
        if self._destroyed or self._target._destroyed:
            raise ComponentStateError("component already destroyed")
        if hashed is None:
            hashed = hash_key(key)
        return hashed & self._mask == self.hash_prefix and self._target.may_contain(key, hashed)

    def get(self, key: Any, hashed: Optional[int] = None) -> Optional[Entry]:
        """Point lookup with the bucket-prefix filtering step (``hashed`` is
        ``hash_key(key)`` when the caller already has it)."""
        if self._destroyed:
            raise ComponentStateError("component already destroyed")
        if hashed is None:
            hashed = hash_key(key)
        if hashed & self._mask != self.hash_prefix:
            return None
        return self._target.get(key)

    def _select(self, low: Any = None, high: Any = None) -> Tuple[slice, List[bool]]:
        """The ``low <= key <= high`` slice of the target's aligned columns and,
        for each position of it, whether the entry belongs to this bucket.

        The filter reads the target's hash column, so no stored key is hashed
        again.  A destroyed reference or a destroyed target raises
        :class:`ComponentStateError`.
        """
        target = self._target
        if self._destroyed or target.is_destroyed:
            raise ComponentStateError("component already destroyed")
        part = slice(*target._bounds(low, high))
        mask, prefix = self._mask, self.hash_prefix
        return part, [hashed & mask == prefix for hashed in target._hashes[part]]

    def scan(self, low: Any = None, high: Any = None) -> Iterator[Entry]:
        """Scan the target, keeping only entries that belong to this bucket:
        :meth:`entries`, ``len()`` and :attr:`size_bytes` are all this one
        pass.  A destroyed reference or target raises at the call, not at the
        first ``next()``."""
        part, keep = self._select(low, high)
        return itertools.compress(self._target._entries[part], keep)

    def run(self, low: Any = None, high: Any = None) -> Tuple[List[Entry], List[Any]]:
        """:meth:`scan` as a list, and the key of each entry beside it."""
        part, keep = self._select(low, high)
        target = self._target
        return (
            list(itertools.compress(target._entries[part], keep)),
            list(itertools.compress(target._keys[part], keep)),
        )

    def entries(self) -> List[Entry]:
        return list(self.scan())

    def hashed_entries(self) -> Tuple[List[Entry], array]:
        """:meth:`entries` and the ``hash_key`` of each, in the same order:
        this bucket's slice of the target's entries and of its hash column."""
        _, keep = self._select()
        target = self._target
        return (
            list(itertools.compress(target._entries, keep)),
            array("Q", itertools.compress(target._hashes, keep)),
        )

    def materialize(self, bloom_bits_per_key: int = 10, bloom_num_hashes: int = 7) -> DiskComponent:
        """A real disk component holding only this bucket's entries (a
        test and debugging aid: merges read :meth:`hashed_entries` directly)."""
        entries, hashed = self.hashed_entries()
        return DiskComponent(entries, bloom_bits_per_key, bloom_num_hashes, hashed=hashed)

    def _destroy(self) -> None:
        super()._destroy()
        if not self._released_target:
            self._released_target = True
            self._target.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReferenceDiskComponent(id={self.component_id}, "
            f"prefix={self.hash_prefix:b}/{self.depth}, target={self._target.component_id})"
        )
