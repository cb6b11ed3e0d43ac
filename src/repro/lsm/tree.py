"""A single LSM-tree index.

This is the substrate on which everything else is built: the primary index of
a dataset partition is a *set* of these (one per bucket, see
:mod:`repro.bucketed`), while the primary-key index and each secondary index
is a single one (storage Option 1 of Section IV).

The tree supports the features the rebalance implementation needs:

* out-of-place writes with tombstone deletes and sequence numbers,
* explicit flushes (asynchronous vs synchronous only differ in how the caller
  accounts their latency; both produce an immutable disk component),
* size-tiered merges driven by a pluggable merge policy,
* point lookups with Bloom-filter skipping and range scans reconciled
  across components (:func:`repro.lsm.iterators.reconcile`; the disk
  components' reconciled run is kept until the component list changes),
* *loaded* components (bulk-created from scanned rebalance data) that can be
  appended to the back of the component list,
* *received component lists* that stay invisible to queries until the
  rebalance commits (Section V-B), and
* *lazy cleanup filters* that make queries ignore entries of moved buckets in
  secondary indexes until the next merge rewrites them (Section V-C).
"""

from __future__ import annotations

import itertools
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..common.config import LSMConfig
from ..common.errors import StorageError
from ..common.hashutil import hash_key, low_bits
from .component import (
    DiskComponent,
    MemoryComponent,
    ReferenceDiskComponent,
    _key_bounds,
    _key_of,
)
from .entry import Entry, total_size_bytes
from .iterators import merge_runs, reconcile
from .manifest import Manifest
from .merge_policy import MergePolicy, SizeTieredMergePolicy, select_components
from .stats import StorageStats

_received_list_ids = itertools.count(1)

#: Endless columns for a run whose rows all take one value; shared, since
#: an unbounded ``repeat`` has no position to advance.
_NONES = itertools.repeat(None)
_ZEROS = itertools.repeat(0)
_FALSES = itertools.repeat(False)

#: Marks a key a lazy-cleanup filter hides while a run of reads is probed.
_HIDDEN = object()

#: Union type of everything that can sit in a component list.
AnyDiskComponent = Any  # DiskComponent | ReferenceDiskComponent


class LSMTree:
    """One LSM index with a memory component and a newest-first disk list."""

    def __init__(
        self,
        name: str,
        config: Optional[LSMConfig] = None,
        merge_policy: Optional[MergePolicy] = None,
        routing_key_extractor: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.name = name
        self.config = config or LSMConfig()
        self.merge_policy = merge_policy or SizeTieredMergePolicy(
            size_ratio=self.config.merge_size_ratio,
            min_components=self.config.merge_min_components,
            max_components=self.config.merge_max_components,
        )
        #: Maps an entry key to the key used for bucket-membership hashing.
        #: Identity for primary indexes; extracts the primary key for
        #: secondary indexes whose entry keys are (secondary key, primary key).
        self.routing_key_extractor = routing_key_extractor or (lambda key: key)
        self.memory = MemoryComponent()
        #: Disk components, newest first.
        self.disk_components: List[AnyDiskComponent] = []
        #: Received component lists from an in-flight rebalance, keyed by list
        #: id; invisible to queries until :meth:`install_received_list`.
        self._received_lists: Dict[int, List[AnyDiskComponent]] = {}
        #: Lazy-cleanup filters: entries whose routing key hashes into one of
        #: these (prefix, depth) buckets are ignored by reads.
        self._invalid_buckets: Set[Tuple[int, int]] = set()
        self.stats = StorageStats()
        self.manifest = Manifest(name)
        self._seqnum = 0
        self._merges_paused = False
        #: The disk components' reconciled run, tombstones kept, as (their
        #: ``component_id`` tuple, entries, keys).  Disk components are
        #: immutable, so the run holds for as long as the list does.
        self._disk_run: Optional[Tuple[Tuple[int, ...], List[Entry], List[Any]]] = None

    # ------------------------------------------------------------------ write

    def _next_seqnum(self) -> int:
        self._seqnum += 1
        return self._seqnum

    def insert(
        self,
        key: Any,
        value: Any,
        hashed: Optional[int] = None,
        value_bytes: Optional[int] = None,
    ) -> Entry:
        """Insert or overwrite one record (a batch lands through
        :meth:`insert_many`, which this equals for one row).

        ``hashed`` is ``hash_key(key)`` and ``value_bytes`` is
        ``estimate_value_size(value)`` when the writer already has them; both
        stay with the record (memory component, flush, merge, bucket move), so
        neither is derived again.
        """
        return self._write(key, value, False, hashed, value_bytes)

    def insert_many(
        self,
        keys: Sequence[Any],
        values: Optional[Sequence[Any]] = None,
        hashes: Optional[Sequence[int]] = None,
        value_sizes: Optional[Sequence[int]] = None,
        tombstones: Optional[Sequence[bool]] = None,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        """Write a run of records in order: the entries, sequence numbers,
        memory component and stats one :meth:`insert` (or :meth:`delete`)
        per row leaves.

        The columns are aligned with ``keys``: ``hashes`` and
        ``value_sizes`` as :meth:`insert`'s ``hashed`` and ``value_bytes``,
        and ``tombstones`` marks the rows that are deletes (antimatter: value
        ``None`` and no size given).  ``values=None`` is a key-only run (the
        primary-key index): every value is ``None``, of size 0.
        ``positions`` picks the rows of the columns this run writes, in
        order (all of them when ``None``), so a writer that grouped one
        batch by tree hands each tree the batch's columns.  The run takes
        the next sequence numbers and lands in one
        :meth:`MemoryComponent.put_many` (a run of one is one write); a
        deactivated memory component raises with nothing written and no
        sequence number taken.
        """
        count = len(keys) if positions is None else len(positions)
        if count == 1:  # a run of one skips the run's set-up
            row = 0 if positions is None else positions[0]
            self._write(
                keys[row],
                None if values is None else values[row],
                tombstones is not None and tombstones[row],
                None if hashes is None else hashes[row],
                0 if values is None else None if value_sizes is None else value_sizes[row],
            )
            return
        if positions is not None:
            keys, values, hashes, value_sizes, tombstones = (
                None if column is None else list(map(column.__getitem__, positions))
                for column in (keys, values, hashes, value_sizes, tombstones)
            )
        if values is None:
            values, value_sizes = _NONES, _ZEROS
        start = self._seqnum + 1
        seqnums = range(start, start + count)
        flags = _FALSES if tombstones is None else tombstones
        if value_sizes is None:
            entries = list(map(Entry, keys, values, seqnums, flags))
        else:
            entries = list(map(Entry, keys, values, seqnums, flags, value_sizes))
        added = self.memory.put_many(entries, hashes)
        self._seqnum += count
        stats = self.stats
        stats.records_written += count
        stats.bytes_written_memory += added

    def delete(self, key: Any, hashed: Optional[int] = None) -> Entry:
        """Delete a record by writing a tombstone."""
        return self._write(key, None, True, hashed)

    def _write(
        self,
        key: Any,
        value: Any,
        tombstone: bool,
        hashed: Optional[int] = None,
        value_bytes: Optional[int] = None,
    ) -> Entry:
        seqnum = self._seqnum + 1
        entry = Entry(key, value, seqnum, tombstone, value_bytes)
        size = entry.size_bytes
        self.memory.put(entry, size, hashed)
        self._seqnum = seqnum
        stats = self.stats
        stats.records_written += 1
        stats.bytes_written_memory += size
        return entry

    @property
    def memory_full(self) -> bool:
        """True once the memory component exceeds its configured budget."""
        return self.memory.size_bytes >= self.config.memory_component_bytes

    # ------------------------------------------------------------------ flush

    def flush(self) -> Optional[DiskComponent]:
        """Flush the memory component into a new (newest) disk component.

        Returns the new component, or ``None`` if the memory component was
        empty.  Both the asynchronous and synchronous flushes of Algorithm 1
        map to this call; the distinction between them is purely about what
        concurrent writers experience, which the caller (bucket split /
        rebalance initialization) accounts for.
        """
        if self.memory.is_empty:
            return None
        entries, hashed = self.memory.sorted_run()
        component = self._build_component(entries, hashed, in_key_order=True)
        old_memory = self.memory
        self.memory = MemoryComponent()
        old_memory.deactivate()
        self.disk_components.insert(0, component)
        self.stats.flush_count += 1
        self.stats.bytes_flushed += component.size_bytes
        self._update_manifest()
        return component

    def maybe_flush(self) -> Optional[DiskComponent]:
        """Flush only if the memory component is over budget."""
        if self.memory_full:
            return self.flush()
        return None

    # ------------------------------------------------------------------ merge

    def pause_merges(self) -> None:
        """Stop scheduling new merges (step 1 of Algorithm 1)."""
        self._merges_paused = True

    def resume_merges(self) -> None:
        self._merges_paused = False

    @property
    def merges_paused(self) -> bool:
        return self._merges_paused

    def maybe_merge(self) -> Optional[DiskComponent]:
        """Run one merge if the policy asks for it; return the new component.

        A tree with no disk components has nothing to merge: it returns
        before sizing anything or asking the policy.
        """
        if self._merges_paused or not self.disk_components:
            return None
        sizes = [self._component_size(c) for c in self.disk_components]
        candidate = select_components(self.merge_policy, sizes)
        if candidate is None:
            return None
        return self._merge_range(candidate.start, candidate.end)

    def merge_all(self) -> Optional[DiskComponent]:
        """Merge every disk component into one (used by tests and cleanup)."""
        if len(self.disk_components) < 2:
            return None
        return self._merge_range(0, len(self.disk_components))

    def _merge_range(self, start: int, end: int) -> DiskComponent:
        victims = self.disk_components[start:end]
        includes_oldest = end == len(self.disk_components)
        runs = [self._component_run_for_merge(c) for c in victims]
        entries, hashed = merge_runs(runs, drop_tombstones=includes_oldest)
        new_component = self._build_component(entries, hashed, in_key_order=True)
        read_bytes = sum(self._merge_read_bytes(c) for c in victims)
        self.stats.merge_count += 1
        self.stats.bytes_merged_read += read_bytes
        self.stats.bytes_merged_written += new_component.size_bytes
        self.stats.records_merged += sum(len(entries) for entries, _ in runs)
        self.disk_components[start:end] = [new_component]
        for victim in victims:
            victim.deactivate()
        # A merge that rewrote every component purges lazy-cleanup filters:
        # the invalidated entries were dropped while rewriting.
        if includes_oldest and start == 0:
            self._invalid_buckets.clear()
        self._update_manifest()
        return new_component

    def _build_component(
        self,
        entries: Iterable[Entry],
        hashed: Optional[Iterable[int]],
        in_key_order: bool = False,
    ) -> DiskComponent:
        return DiskComponent(
            entries,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
            bloom_num_hashes=self.config.bloom_num_hashes,
            hashed=hashed,
            in_key_order=in_key_order,
        )

    def _component_run_for_merge(
        self, component: AnyDiskComponent
    ) -> Tuple[List[Entry], Optional[array]]:
        """Entries a merge reads from ``component`` and their key hashes
        (``None`` if the component holds no column: none is derived just to
        be carried), applying cleanup filters to both."""
        entries, hashed = component.carried_entries()
        if self._invalid_buckets:
            keep = [not self._is_invalidated(e.key) for e in entries]
            entries = list(itertools.compress(entries, keep))
            if hashed is not None:
                hashed = array("Q", itertools.compress(hashed, keep))
        return entries, hashed

    def _merge_read_bytes(self, component: AnyDiskComponent) -> int:
        if isinstance(component, ReferenceDiskComponent):
            # A merge must read the whole referenced component to filter it.
            return component.referenced_bytes
        return component.size_bytes

    @staticmethod
    def _component_size(component: AnyDiskComponent) -> int:
        return component.size_bytes

    # ------------------------------------------------------------------ read

    def _visible_components(self) -> List[AnyDiskComponent]:
        return list(self.disk_components)

    def _is_invalidated(self, entry_key: Any) -> bool:
        if not self._invalid_buckets:
            return False
        routing_key = self.routing_key_extractor(entry_key)
        hashed = hash_key(routing_key)
        for prefix, depth in self._invalid_buckets:
            if low_bits(hashed, depth) == prefix:
                return True
        return False

    def get(self, key: Any, hashed: Optional[int] = None) -> Optional[Any]:
        """Point lookup: newest-to-oldest search, Bloom-filter skipping.

        Returns the value, or ``None`` if the key is absent or deleted.
        """
        entry = self.get_entry(key, hashed)
        if entry is None or entry.tombstone:
            return None
        return entry.value

    def get_entry(self, key: Any, hashed: Optional[int] = None) -> Optional[Entry]:
        """Like :meth:`get` but returns the raw entry (tombstones included).

        ``hashed`` is ``hash_key(key)`` when the caller already routed on it;
        every Bloom filter and reference component the probe reaches shares
        it, and a probe answered by the memory component never needs it.

        Each disk component, newest first, is bisected first and asked its
        Bloom filter only on a miss: a hit counts as an open (a filter built
        from the component's own hash column has no false negatives, so the
        filter-first order would have opened it too), a miss the filter
        rules out as a skip, and a miss it lets through as an open that found
        nothing.  The counters are the filter-first order's, exactly, and a
        component's filter is built on its first miss.
        """
        if self._invalid_buckets and self._is_invalidated(key):
            return None
        stats = self.stats
        entry = self.memory.get(key)
        if entry is not None:
            stats.records_read += 1
            return entry
        components = self.disk_components
        if not components:
            return None
        if hashed is None:
            hashed = hash_key(key)
        for component in components:
            component.retain()
            try:
                entry = component.get(key, hashed)
                if entry is None and not component.may_contain(key, hashed):
                    stats.bloom_negative_skips += 1
                    continue
                stats.components_opened += 1
            finally:
                component.release()
            if entry is not None:
                stats.records_read += 1
                stats.bytes_read += entry.size_bytes
                return entry
        return None

    def get_many(
        self, keys: Sequence[Any], hashes: Sequence[int]
    ) -> Tuple[List[Optional[Entry]], List[int]]:
        """:meth:`get_entry` for a run of keys (``hashes`` their ``hash_key``):
        each key's entry and the number of disk components its own probe
        opened, in key order.

        The memory component answers the whole run in one pass; then each
        disk component, newest first, is pinned once and bisected for the keys
        still unresolved, and only the keys it lacks ask its reference prefix
        and Bloom filter (as in :meth:`get_entry`).  Every key meets the
        components :meth:`get_entry` would show it, in the same order, so the
        stats counters end with exactly the totals a loop of
        :meth:`get_entry` leaves.
        """
        entries = self.memory.get_many(keys)
        opened = [0] * len(keys)
        hidden = 0
        if self._invalid_buckets:
            for position, key in enumerate(keys):
                if self._is_invalidated(key):
                    entries[position] = _HIDDEN
                    hidden += 1
        unresolved = [position for position, entry in enumerate(entries) if entry is None]
        stats = self.stats
        stats.records_read += len(keys) - hidden - len(unresolved)
        for component in self.disk_components:
            if not unresolved:
                break
            get = component.get
            missed = []
            component.retain()
            try:
                for position in unresolved:
                    entry = get(keys[position], hashes[position])
                    if entry is None:
                        missed.append(position)
                    else:
                        entries[position] = entry
                        opened[position] += 1
                        stats.bytes_read += entry.size_bytes
                hits = len(unresolved) - len(missed)
                stats.records_read += hits
                stats.components_opened += hits
                if missed:
                    may_contain = component.may_contain
                    admitted = [p for p in missed if may_contain(keys[p], hashes[p])]
                    for position in admitted:  # false positives: opened, nothing found
                        opened[position] += 1
                    stats.components_opened += len(admitted)
                    stats.bloom_negative_skips += len(missed) - len(admitted)
            finally:
                component.release()
            unresolved = missed
        if hidden:
            entries = [None if entry is _HIDDEN else entry for entry in entries]
        return entries, opened

    def peek(self, key: Any, hashed: Optional[int] = None) -> Optional[Entry]:
        """:meth:`get_entry` as the write path's old-value probe: the same
        answer, but no stats counter moves and no Bloom filter is built
        (each component is asked directly), so the probe is free in the cost
        model.  ``hashed`` is ``hash_key(key)`` when the caller has it."""
        if self._invalid_buckets and self._is_invalidated(key):
            return None
        entry = self.memory.get(key)
        if entry is not None:
            return entry
        for component in self.disk_components:
            entry = component.get(key, hashed)
            if entry is not None:
                return entry
        return None

    def scan(
        self,
        low: Any = None,
        high: Any = None,
        include_tombstones: bool = False,
    ) -> Iterator[Entry]:
        """Range scan, reconciled across components a run at a time.

        The disk components' reconciled run is kept until the component list
        changes (:meth:`_reconciled_disk_run`), so a scan reconciles only the
        memory run against its bisected slice.  Lazy: nothing is read before
        the first ``next()``; the components stay retained until the scan is
        exhausted or closed, every one of them counts as opened, and only an
        exhausted scan adds its records and bytes to :attr:`stats`.
        """
        components = self._visible_components()
        for component in components:
            component.retain()
        try:
            disk_entries, disk_keys = self._reconciled_disk_run(components)
            if low is not None or high is not None:  # unbounded: the whole run, uncopied
                start, stop = _key_bounds(disk_keys, low, high)
                disk_entries, disk_keys = disk_entries[start:stop], disk_keys[start:stop]
            memory_entries, memory_keys = self.memory.run(low, high)
            self.stats.components_opened += len(components)
            entries, _ = reconcile(
                (memory_entries, disk_entries),
                (memory_keys, disk_keys),
                include_tombstones=include_tombstones,
            )
            # Physically-read bytes are counted before the lazy-cleanup
            # filter: obsolete entries of moved buckets still cost I/O
            # until a merge drops them (that is the "overhead" of lazy
            # secondary-index cleanup measured in Figure 8).
            scanned_records = len(entries)
            scanned_bytes = total_size_bytes(entries)
            if self._invalid_buckets:
                entries = [e for e in entries if not self._is_invalidated(e.key)]
            yield from entries
            self.stats.records_read += scanned_records
            self.stats.bytes_read += scanned_bytes
        finally:
            for component in components:
                component.release()

    def _reconciled_disk_run(
        self, components: List[AnyDiskComponent]
    ) -> Tuple[List[Entry], List[Any]]:
        """The unbounded reconciled run of ``components`` and its keys,
        tombstones kept (a scan may ask for them, and the memory run is
        reconciled against them), stored under the components'
        ``component_id`` tuple: a run is reused only for the very components
        it was built from."""
        ids = tuple(component.component_id for component in components)
        kept = self._disk_run
        if kept is None or kept[0] != ids:
            runs = [component.run() for component in components]
            entries, _ = reconcile(
                [run[0] for run in runs], [run[1] for run in runs], include_tombstones=True
            )
            kept = self._disk_run = (ids, entries, list(map(_key_of, entries)))
        return kept[1], kept[2]

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        """Number of live keys (requires a full reconciling scan)."""
        return sum(1 for _ in self.scan())

    # --------------------------------------------------------- physical sizes

    @property
    def size_bytes(self) -> int:
        """Estimated total size of the index (memory plus visible disk)."""
        if not self.disk_components:
            return self.memory.size_bytes
        return self.memory.size_bytes + sum(
            self._component_size(c) for c in self.disk_components
        )

    @property
    def component_count(self) -> int:
        return len(self.disk_components)

    # ------------------------------------------------- rebalance integration

    def add_loaded_component(
        self,
        entries: Sequence[Entry],
        newest: bool = False,
        hashed: Optional[Iterable[int]] = None,
    ) -> DiskComponent:
        """Create a disk component directly from scanned data.

        Used by the rebalance destination to bulk-load scanned records.  With
        ``newest=False`` (the default) the component is appended at the *back*
        of the list, i.e. treated as strictly older than everything already
        present — exactly the ordering Section V-B requires between scanned
        data and replicated log records.  ``hashed`` is the key-hash column
        of ``entries`` when the scan carried it (see :class:`DiskComponent`:
        the entries must then be in key order).
        """
        component = self._build_component(entries, hashed)
        if newest:
            self.disk_components.insert(0, component)
        else:
            self.disk_components.append(component)
        self.stats.bytes_flushed += component.size_bytes
        self._update_manifest()
        return component

    def create_received_list(self) -> int:
        """Open a new invisible component list for rebalance-received data."""
        list_id = next(_received_list_ids)
        self._received_lists[list_id] = []
        self.manifest.add_pending_received(list_id)
        return list_id

    def append_to_received_list(
        self, list_id: int, entries: Sequence[Entry], hashed: Optional[Iterable[int]] = None
    ) -> DiskComponent:
        """Add a component of received records to an invisible list
        (``hashed`` as for :meth:`add_loaded_component`)."""
        if list_id not in self._received_lists:
            raise StorageError(f"unknown received list {list_id}")
        component = self._build_component(entries, hashed)
        self._received_lists[list_id].append(component)
        self.stats.bytes_flushed += component.size_bytes
        return component

    def install_received_list(self, list_id: int) -> None:
        """Make a received list visible (the NC-side commit task).

        The received components were written in arrival order (newest last is
        the bulk-loaded scan, newest first the replicated writes); they are
        registered *after* the existing newest components so that local writes
        that raced ahead keep their recency, and internal order is preserved.
        Installing an unknown list id is a no-op, making the operation
        idempotent (Section V-D, Case 4).
        """
        components = self._received_lists.pop(list_id, None)
        if components is None:
            return
        self.disk_components[0:0] = components
        self.manifest.remove_pending_received(list_id)
        self._update_manifest()

    def drop_received_list(self, list_id: int) -> None:
        """Delete a received list (the NC-side abort/cleanup task).

        Idempotent: dropping a list that does not exist is a no-op
        (Section V-D, Case 1).
        """
        components = self._received_lists.pop(list_id, None)
        if components is None:
            return
        for component in components:
            component.deactivate()
        self.manifest.remove_pending_received(list_id)

    def invalidate_bucket(self, hash_prefix: int, depth: int) -> None:
        """Lazy cleanup: hide all entries whose routing key falls in a bucket.

        Used by secondary indexes after a bucket moves away; the physical
        entries are dropped by the next full merge.
        """
        self._invalid_buckets.add((low_bits(hash_prefix, depth), depth))
        self.manifest.invalidate_bucket(low_bits(hash_prefix, depth), depth)

    @property
    def invalidated_buckets(self) -> Set[Tuple[int, int]]:
        return set(self._invalid_buckets)

    # ------------------------------------------------------------- manifest

    def _update_manifest(self) -> None:
        # Every change to the component list lands here: let go of the old
        # list's reconciled run so it pins no retired entry.
        self._disk_run = None
        self.manifest.set_components([c.component_id for c in self.disk_components])

    def force_manifest(self) -> None:
        self._update_manifest()
        self.manifest.force()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LSMTree(name={self.name!r}, mem={self.memory.size_bytes}B, "
            f"components={len(self.disk_components)})"
        )
