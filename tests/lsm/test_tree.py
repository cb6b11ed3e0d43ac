"""Tests for the LSM-tree index."""

import itertools
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketed.bucket import Bucket
from repro.bucketed.split import split_bucket
from repro.common.config import LSMConfig
from repro.common.errors import ComponentStateError
from repro.common.hashutil import hash_key, low_bits
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.lsm.bloom import BloomFilter
from repro.lsm.component import DiskComponent, ReferenceDiskComponent
from repro.lsm.entry import Entry, sort_key
from repro.lsm.iterators import merge_runs
from repro.lsm.merge_policy import (
    MergeCandidate,
    NoMergePolicy,
    SizeTieredMergePolicy,
    select_components,
)
from repro.lsm.stats import StorageStats
from repro.lsm.tree import SHORT_RUN, LSMTree

from .test_iterators import heap_merge_scan, same_objects


def small_config(**overrides):
    defaults = {"memory_component_bytes": 1024, "bloom_bits_per_key": 10}
    defaults.update(overrides)
    return LSMConfig(**defaults)


def make_tree(**config_overrides):
    return LSMTree("test", config=small_config(**config_overrides))


class MergeEverything:
    """A merge policy that merges every component once there are two."""

    def select(self, component_sizes):
        return MergeCandidate(0, len(component_sizes)) if len(component_sizes) >= 2 else None


class TestBasicReadWrite:
    def test_insert_then_get(self):
        tree = make_tree()
        tree.insert(1, "one")
        assert tree.get(1) == "one"

    def test_get_missing_returns_none(self):
        assert make_tree().get(99) is None

    def test_overwrite_returns_newest(self):
        tree = make_tree()
        tree.insert(1, "old")
        tree.insert(1, "new")
        assert tree.get(1) == "new"

    def test_delete_hides_value(self):
        tree = make_tree()
        tree.insert(1, "one")
        tree.delete(1)
        assert tree.get(1) is None
        assert 1 not in tree

    def test_delete_survives_flush(self):
        tree = make_tree()
        tree.insert(1, "one")
        tree.flush()
        tree.delete(1)
        tree.flush()
        assert tree.get(1) is None

    def test_contains(self):
        tree = make_tree()
        tree.insert(5, "five")
        assert 5 in tree
        assert 6 not in tree

    def test_len_counts_live_keys(self):
        tree = make_tree()
        for key in range(10):
            tree.insert(key, key)
        tree.delete(3)
        assert len(tree) == 9

    def test_a_tombstone_row_of_a_run_deletes(self):
        tree = make_tree()
        tree.insert(1, "x")
        tree.insert_many([2, 1], ["y", None], tombstones=[False, True])
        assert tree.get(1) is None
        assert tree.get(2) == "y"
        assert tree.peek(1).tombstone and tree.peek(1).seqnum == 3


class TestFlush:
    def test_flush_moves_memory_to_disk(self):
        tree = make_tree()
        tree.insert(1, "one")
        component = tree.flush()
        assert component is not None
        assert tree.memory.is_empty
        assert tree.component_count == 1
        assert tree.get(1) == "one"

    def test_flush_empty_memory_is_noop(self):
        tree = make_tree()
        assert tree.flush() is None
        assert tree.component_count == 0

    def test_maybe_flush_respects_budget(self):
        tree = make_tree(memory_component_bytes=100_000)
        tree.insert(1, "tiny")
        assert tree.maybe_flush() is None
        tree2 = make_tree(memory_component_bytes=64)
        tree2.insert(1, "x" * 200)
        assert tree2.maybe_flush() is not None

    def test_memory_full_flag(self):
        tree = make_tree(memory_component_bytes=64)
        assert not tree.memory_full
        tree.insert(1, "x" * 200)
        assert tree.memory_full

    def test_newest_component_first(self):
        tree = make_tree()
        tree.insert(1, "old")
        tree.flush()
        tree.insert(1, "new")
        tree.flush()
        assert tree.get(1) == "new"
        assert tree.component_count == 2

    def test_flush_stats(self):
        tree = make_tree()
        tree.insert(1, "x" * 100)
        tree.flush()
        assert tree.stats.flush_count == 1
        assert tree.stats.bytes_flushed > 100


class TestMerge:
    def test_merge_all_collapses_components(self):
        tree = make_tree()
        for key in range(6):
            tree.insert(key, f"v{key}")
            tree.flush()
        assert tree.component_count == 6
        tree.merge_all()
        assert tree.component_count == 1
        assert all(tree.get(key) == f"v{key}" for key in range(6))

    def test_merge_drops_tombstones_when_oldest_included(self):
        tree = make_tree()
        tree.insert(1, "one")
        tree.flush()
        tree.delete(1)
        tree.flush()
        merged = tree.merge_all()
        assert len(merged) == 0  # tombstone and value both gone

    def test_maybe_merge_uses_policy(self):
        tree = LSMTree("t", config=small_config(), merge_policy=MergeEverything())
        tree.insert(1, "a")
        tree.flush()
        tree.insert(2, "b")
        tree.flush()
        assert tree.maybe_merge() is not None
        assert tree.component_count == 1

    def test_no_merge_policy(self):
        tree = LSMTree("t", config=small_config(), merge_policy=NoMergePolicy())
        for key in range(5):
            tree.insert(key, key)
            tree.flush()
        assert tree.maybe_merge() is None
        assert tree.component_count == 5

    def test_paused_merges_are_skipped(self):
        tree = LSMTree("t", config=small_config(), merge_policy=MergeEverything())
        tree.insert(1, "a")
        tree.flush()
        tree.insert(2, "b")
        tree.flush()
        tree.pause_merges()
        assert tree.maybe_merge() is None
        tree.resume_merges()
        assert tree.maybe_merge() is not None

    def test_merge_stats(self):
        tree = make_tree()
        for key in range(4):
            tree.insert(key, "x" * 50)
            tree.flush()
        tree.merge_all()
        assert tree.stats.merge_count == 1
        assert tree.stats.bytes_merged_read > 0
        assert tree.stats.bytes_merged_written > 0

    def test_a_tree_without_disk_components_sizes_nothing(self, monkeypatch):
        # maybe_merge and size_bytes return before sizing a component or
        # asking the policy: there is nothing to merge.
        asked = []
        tree = LSMTree("t", config=small_config(), merge_policy=MergeEverything())
        tree.insert(1, "a")
        monkeypatch.setattr(tree.merge_policy, "select", asked.append, raising=False)
        assert tree.maybe_merge() is None
        assert tree.size_bytes == tree.memory.size_bytes
        assert asked == []

    @settings(max_examples=80, deadline=None)
    @given(
        layout=st.lists(
            st.one_of(
                st.tuples(st.just("disk"), st.integers(1, 12), st.integers(0, 40)),
                st.tuples(st.just("reference"), st.integers(1, 12), st.integers(0, 3)),
                st.tuples(st.just("empty"), st.just(0), st.just(0)),
            ),
            max_size=6,
        ),
        policy=st.one_of(
            st.builds(
                SizeTieredMergePolicy,
                size_ratio=st.floats(0.1, 3.0),
                min_components=st.integers(2, 4),
                max_components=st.integers(0, 5),
            ),
            st.sampled_from([MergeEverything(), NoMergePolicy()]),
        ),
    )
    def test_maybe_merge_is_the_policy_path(self, layout, policy):
        # Over any disk-component list — references and the empty component
        # a tombstone-dropping merge leaves included — maybe_merge merges
        # what the policy picks from the components' sizes, and nothing when
        # it picks nothing (or the list is empty).
        def tree_of(layout):
            tree = LSMTree("t", config=small_config(), merge_policy=policy)
            seqnums = itertools.count(1)
            for kind, count, extra in layout:
                if kind == "empty":
                    component = DiskComponent([])
                else:
                    entries = [
                        Entry(key, "v" * (extra + key % 5), next(seqnums), tombstone=key % 7 == 0)
                        for key in range(count * 3)
                    ]
                    component = DiskComponent(entries)
                    if kind == "reference":
                        component = ReferenceDiskComponent(component, hash_prefix=extra, depth=2)
                tree.disk_components.append(component)
            return tree

        def state(tree, merged):
            return merged is None, tree.stats, [
                (type(c).__name__, [(e.key, e.value, e.seqnum, e.tombstone) for e in c.entries()])
                for c in tree.disk_components
            ]

        merged = tree_of(layout)
        result = merged.maybe_merge()
        oracle = tree_of(layout)
        sizes = [component.size_bytes for component in oracle.disk_components]
        candidate = select_components(policy, sizes)
        expected = None if candidate is None else oracle._merge_range(candidate.start, candidate.end)
        assert state(merged, result) == state(oracle, expected)

    def test_merged_victims_are_deactivated(self):
        tree = make_tree()
        tree.insert(1, "a")
        tree.flush()
        tree.insert(2, "b")
        tree.flush()
        victims = list(tree.disk_components)
        tree.merge_all()
        assert all(victim.is_destroyed for victim in victims)


class TestScan:
    def test_scan_returns_sorted_keys(self):
        tree = make_tree()
        for key in (5, 3, 9, 1):
            tree.insert(key, str(key))
        assert [e.key for e in tree.scan()] == [1, 3, 5, 9]

    def test_scan_across_memory_and_disk(self):
        tree = make_tree()
        tree.insert(1, "disk")
        tree.flush()
        tree.insert(2, "memory")
        assert [e.key for e in tree.scan()] == [1, 2]

    def test_scan_reconciles_duplicates(self):
        tree = make_tree()
        tree.insert(1, "old")
        tree.flush()
        tree.insert(1, "new")
        result = list(tree.scan())
        assert len(result) == 1
        assert result[0].value == "new"

    def test_scan_bounds(self):
        tree = make_tree()
        for key in range(10):
            tree.insert(key, key)
        tree.flush()
        assert [e.key for e in tree.scan(low=3, high=6)] == [3, 4, 5, 6]

    def test_prefix_bounds_over_composite_keys_with_a_live_memory_component(self):
        # The memory component used to compare raw keys (``key < low``), so
        # this scan worked on a flushed tree and raised TypeError ('<' between
        # tuple and int) as soon as anything sat in memory.
        tree = LSMTree("x")
        for order in range(1, 5):
            for line in range(1, 3):
                tree.insert((order, line), "row")
        tree.flush()
        expected = [(2, 1), (2, 2), (3, 1), (3, 2)]
        assert [e.key for e in tree.scan(low=2, high=(3, 9))] == expected
        tree.insert((9, 1), "memory")
        assert [e.key for e in tree.scan(low=2, high=(3, 9))] == expected
        tree.insert((3, 3), "memory")
        assert [e.key for e in tree.scan(low=2, high=(3, 9))] == expected + [(3, 3)]
        assert [e.key for e in tree.scan(low=(3, 3))] == [(3, 3), (4, 1), (4, 2), (9, 1)]

    def test_scan_skips_tombstones(self):
        tree = make_tree()
        tree.insert(1, "a")
        tree.insert(2, "b")
        tree.delete(1)
        assert [e.key for e in tree.scan()] == [2]

    def test_scan_with_tombstones_included(self):
        tree = make_tree()
        tree.insert(1, "a")
        tree.delete(1)
        result = list(tree.scan(include_tombstones=True))
        assert len(result) == 1 and result[0].tombstone


class TestBloomSkipping:
    def test_point_lookup_skips_components_without_key(self):
        tree = make_tree()
        for batch in range(5):
            for key in range(batch * 100, batch * 100 + 100):
                tree.insert(key, key)
            tree.flush()
        before = tree.stats.bloom_negative_skips
        tree.get(450)  # lives in the newest component only
        assert tree.stats.bloom_negative_skips >= before


class TestRebalanceIntegration:
    def test_loaded_component_is_oldest(self):
        tree = make_tree()
        tree.insert(1, "local-new")
        tree.flush()
        loaded = [Entry(key=1, value="loaded-old", seqnum=0), Entry(key=2, value="ok", seqnum=0)]
        tree.add_loaded_component(loaded)
        # The local write must still win: loaded data is strictly older.
        assert tree.get(1) == "local-new"
        assert tree.get(2) == "ok"

    def test_received_list_invisible_until_installed(self):
        tree = make_tree()
        list_id = tree.create_received_list()
        tree.append_to_received_list(list_id, [Entry(key=10, value="moved", seqnum=0)])
        assert tree.get(10) is None
        tree.install_received_list(list_id)
        assert tree.get(10) == "moved"

    def test_drop_received_list_discards_data(self):
        tree = make_tree()
        list_id = tree.create_received_list()
        component = tree.append_to_received_list(list_id, [Entry(key=10, value="x", seqnum=0)])
        tree.drop_received_list(list_id)
        assert tree.get(10) is None
        assert component.is_destroyed

    def test_install_and_drop_are_idempotent(self):
        tree = make_tree()
        list_id = tree.create_received_list()
        tree.append_to_received_list(list_id, [Entry(key=10, value="x", seqnum=0)])
        tree.install_received_list(list_id)
        tree.install_received_list(list_id)  # second install is a no-op
        tree.drop_received_list(list_id)  # dropping after install is a no-op
        assert tree.get(10) == "x"
        assert tree.component_count == 1

    def test_append_to_unknown_list_rejected(self):
        tree = make_tree()
        with pytest.raises(Exception):
            tree.append_to_received_list(999, [])

    def test_lazy_invalidation_hides_bucket_entries(self):
        tree = make_tree()
        keys = list(range(50))
        for key in keys:
            tree.insert(key, f"v{key}")
        tree.flush()
        # Invalidate the depth-1 bucket with prefix 0.
        tree.invalidate_bucket(0, 1)
        for key in keys:
            expected_hidden = low_bits(hash_key(key), 1) == 0
            if expected_hidden:
                assert tree.get(key) is None
            else:
                assert tree.get(key) == f"v{key}"

    def test_full_merge_clears_invalidation_filters(self):
        tree = make_tree()
        for key in range(20):
            tree.insert(key, key)
        tree.flush()
        tree.insert(100, 100)
        tree.flush()
        tree.invalidate_bucket(0, 1)
        tree.merge_all()
        assert tree.invalidated_buckets == set()
        # Entries of the invalidated bucket were physically dropped.
        hidden = [k for k in range(20) if low_bits(hash_key(k), 1) == 0]
        assert all(tree.get(k) is None for k in hidden)

    def test_secondary_style_routing_extractor(self):
        # Secondary index keys are (secondary key, primary key); invalidation
        # must hash the primary key.
        tree = LSMTree(
            "sk",
            config=small_config(),
            routing_key_extractor=lambda composite: composite[1],
        )
        tree.insert(("blue", 7), "rid7")
        tree.insert(("red", 8), "rid8")
        tree.flush()
        pk7_prefix = low_bits(hash_key(7), 1)
        tree.invalidate_bucket(pk7_prefix, 1)
        assert tree.get(("blue", 7)) is None
        expected_8_hidden = low_bits(hash_key(8), 1) == pk7_prefix
        assert (tree.get(("red", 8)) is None) == expected_8_hidden


class TestSizesAndManifest:
    def test_size_bytes_tracks_memory_and_disk(self):
        tree = make_tree()
        tree.insert(1, "x" * 100)
        in_memory = tree.size_bytes
        tree.flush()
        assert tree.size_bytes == pytest.approx(in_memory, rel=0.01)
        assert tree.memory.size_bytes == 0 and tree.disk_components[0].size_bytes > 0

    def test_force_manifest_records_components(self):
        tree = make_tree()
        tree.insert(1, "a")
        tree.flush()
        tree.force_manifest()
        assert tree.manifest.durable.component_ids == [tree.disk_components[0].component_id]


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "flush", "merge"]),
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=60,
        )
    )
    def test_matches_model_dict(self, operations):
        """The LSM-tree behaves exactly like a plain dict under any op mix."""
        tree = make_tree(memory_component_bytes=512)
        model = {}
        for op, key, value in operations:
            if op == "insert":
                tree.insert(key, value)
                model[key] = value
            elif op == "delete":
                tree.delete(key)
                model.pop(key, None)
            elif op == "flush":
                tree.flush()
            elif op == "merge":
                tree.merge_all()
        for key in range(21):
            assert tree.get(key) == model.get(key)
        assert sorted(e.key for e in tree.scan()) == sorted(model.keys())


# ------------------------------------------------------- the carried column
#
# A record's key hash enters with the write (when the writer has it), stays in
# the memory component and is handed to every component built from it: flush,
# merge, split (references read their target's column) and bucket move.  The
# oracles below re-derive everything from the keys.

_KEY_SHAPES = {
    "int": st.integers(-(2**70), 2**70),
    "str": st.text(max_size=4),
    "tuple": st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
}


def _sequences(write, *others):
    """Operation sequences in which components pile up: runs of ``write``
    operations, most of them closed by a flush, between the ``others``."""
    flush = [("flush", 0)]
    burst = st.tuples(
        st.lists(write, min_size=1, max_size=4), st.sampled_from([flush, flush, []])
    ).map(lambda pair: pair[0] + pair[1])
    single = st.one_of(*others).map(lambda operation: [operation])
    return st.lists(st.one_of(burst, burst, single), max_size=16).map(
        lambda groups: [operation for group in groups for operation in group]
    )


@st.composite
def carried_column_cases(draw, shapes=_KEY_SHAPES):
    """A key shape's small key pool and an operation sequence over it."""
    shape = shapes[draw(st.sampled_from(sorted(shapes)))]
    pool = draw(st.lists(shape, min_size=1, max_size=24, unique=True))
    key, index, carry = st.sampled_from(pool), st.integers(0, 7), st.booleans()
    write = st.one_of(
        st.tuples(st.just("insert"), key, st.integers(0, 999), carry),
        st.tuples(st.just("insert"), key, st.integers(0, 999), carry),
        st.tuples(st.just("delete"), key, carry),
    )
    others = (
        st.tuples(st.just("flush"), index),
        st.tuples(st.just("merge"), index, st.booleans()),
        st.tuples(st.just("split"), index),
        st.tuples(st.just("move"), index, st.booleans()),
        st.tuples(st.just("invalidate"), st.integers(0, 3), st.integers(1, 2)),
    )
    return pool, draw(_sequences(write, *others))


def reachable_components(buckets):
    """Every real disk component a read of ``buckets`` can reach."""
    found = {}
    for bucket in buckets:
        for component in bucket.tree.disk_components:
            real = component.target if isinstance(component, ReferenceDiskComponent) else component
            found[real.component_id] = real
    return list(found.values())


def assert_derived_facts_hold(component, config):
    keys = component._keys
    assert keys == [e.key for e in component._entries]
    assert keys == sorted(keys, key=sort_key)
    assert component._hashes == array("Q", map(hash_key, keys))
    assert component.size_bytes == sum(e.size_bytes for e in component._entries)
    assert all(component.may_contain(key) for key in keys)  # the first probe builds
    eager = BloomFilter.build(
        keys, bits_per_key=config.bloom_bits_per_key, num_hashes=config.bloom_num_hashes
    )
    assert component.bloom._bits == eager._bits
    assert (component.bloom._num_bits, component.bloom._num_hashes) == (
        eager._num_bits,
        eager._num_hashes,
    )


def play(operations, config, carry_hashes, observe=None):
    """Run ``operations`` over buckets that tile the hash space; returns the
    buckets and the model of what they hold (``None`` once a lazy-cleanup
    filter made visibility depend on merge timing).  ``observe(buckets)``,
    when given, runs after every operation."""
    buckets, model = [Bucket(ROOT_BUCKET, config=config)], {}
    for operation in operations:
        kind = operation[0]
        if kind in ("insert", "delete"):
            key = operation[1]
            hashed = hash_key(key)
            tree = next(b for b in buckets if b.owns_key(key, hashed)).tree
            carried = hashed if operation[-1] and carry_hashes else None
            if kind == "insert":
                tree.insert(key, operation[2], carried)
                if model is not None:
                    model[key] = operation[2]
            else:
                tree.delete(key, carried)
                if model is not None:
                    model.pop(key, None)
        elif kind == "invalidate":
            for bucket in buckets:
                bucket.tree.invalidate_bucket(operation[1], operation[2])
            model = None
        else:
            restructure(buckets, operation, config)
        if observe is not None:
            observe(buckets)
    return buckets, model


def restructure(buckets, operation, config):
    """Flush, merge, split or move one of ``buckets`` (in place)."""
    kind = operation[0]
    position = operation[1] % len(buckets)
    bucket = buckets[position]
    if kind == "flush":
        bucket.flush()
    elif kind == "merge":
        bucket.tree.merge_all() if operation[2] else bucket.tree.maybe_merge()
    elif kind == "split" and bucket.depth < 3:
        buckets[position : position + 1] = split_bucket(bucket).children
    elif kind == "move":
        bucket.flush()
        snapshot = bucket.snapshot_components()
        entries, hashed = merge_runs([c.hashed_entries() for c in snapshot], drop_tombstones=True)
        received = Bucket(bucket.bucket_id, config=config)
        if entries and operation[2]:  # bulk-loaded as the oldest component
            received.tree.add_loaded_component(entries, hashed=hashed)
        elif entries:  # through an invisible received list, then installed
            list_id = received.tree.create_received_list()
            received.tree.append_to_received_list(list_id, entries, hashed)
            received.tree.install_received_list(list_id)
        Bucket.release_snapshot(snapshot)
        buckets[position] = received


class TestCarriedColumn:
    @settings(max_examples=150, deadline=None)
    @given(case=carried_column_cases(), bits_per_key=st.sampled_from([0, 10]))
    def test_every_component_holds_what_its_keys_derive(self, case, bits_per_key):
        pool, operations = case
        config = small_config(memory_component_bytes=256, bloom_bits_per_key=bits_per_key)
        buckets, model = play(operations, config, carry_hashes=True)
        for component in reachable_components(buckets):
            assert_derived_facts_hold(component, config)
        scanned = {e.key: e.value for b in buckets for e in b.scan()}
        if model is not None:
            assert scanned == model
            for key in pool:
                bucket = next(b for b in buckets if b.owns_key(key))
                assert bucket.tree.get(key) == model.get(key)
        # Carrying a hash changes no component and no answer: the same
        # sequence with every writer keeping its hash to itself.
        twins, _ = play(operations, config, carry_hashes=False)
        assert {e.key: e.value for b in twins for e in b.scan()} == scanned
        assert [
            [c.entries() for c in b.tree.disk_components] for b in twins
        ] == [[c.entries() for c in b.tree.disk_components] for b in buckets]
        for bucket in buckets:
            # A final flush writes out whatever the memory components kept.
            flushed = bucket.flush()
            if flushed is not None:
                assert_derived_facts_hold(flushed, config)

    def test_the_memory_column_survives_overwrites_and_is_dropped_by_an_unhashed_key(self):
        tree = make_tree()
        for key in (5, 3, 9, 3, 5):
            tree.insert(key, "v", hash_key(key))
        assert list(tree.memory._hashes) == [hash_key(key) for key in (5, 3, 9)]
        tree.insert(4, "v")  # this writer had no hash to give
        assert tree.memory._hashes is None
        tree.insert(1, "v", hash_key(1))
        flushed = tree.flush()
        assert flushed._keys == [1, 3, 4, 5, 9]
        assert_derived_facts_hold(flushed, tree.config)
        assert list(tree.memory._hashes) == []

    _SECONDARY_WRITES = st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]), st.integers(0, 3), st.integers(0, 15)
        ),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=100, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(
                # Flushed bursts pile components up, filters arrive, a few
                # writes stay in memory, and then everything on disk merges.
                st.lists(_SECONDARY_WRITES, min_size=2, max_size=4),
                st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=2),
                st.one_of(st.just([]), _SECONDARY_WRITES),
            ),
            min_size=1,
            max_size=3,
        ),
        bits_per_key=st.sampled_from([0, 10]),
    )
    def test_a_merge_under_lazy_cleanup_filters_entry_and_hash_together(
        self, rounds, bits_per_key
    ):
        """A secondary index: keys are ``(secondary key, primary key)`` and the
        cleanup filter hashes the primary key, not the stored key."""
        tree = LSMTree(
            "secondary",
            config=small_config(bloom_bits_per_key=bits_per_key),
            merge_policy=NoMergePolicy(),
            routing_key_extractor=lambda composite: composite[-1],
        )

        def hidden(key, filters):
            return any(low_bits(hash_key(key[-1]), depth) == prefix for prefix, depth in filters)

        def newest(sources):
            seen = {}
            for source in sources:
                for entry in source:
                    seen.setdefault(entry.key, entry)
            return seen

        def check_reads():
            for component in tree.disk_components:
                assert_derived_facts_hold(component, tree.config)
            everything = newest(
                [tree.memory.sorted_entries()] + [c.entries() for c in tree.disk_components]
            )
            assert [e.key for e in tree.scan()] == sorted(
                key
                for key, entry in everything.items()
                if not entry.tombstone and not hidden(key, tree.invalidated_buckets)
            )

        def write(writes):
            for kind, *key in writes:
                tree.insert(tuple(key), "v") if kind == "insert" else tree.delete(tuple(key))

        for bursts, invalidations, unflushed in rounds:
            for burst in bursts:
                write(burst)
                tree.flush()
            for prefix, depth in invalidations:
                tree.invalidate_bucket(prefix, depth)
            write(unflushed)
            check_reads()
            filters = tree.invalidated_buckets
            on_disk = newest(c.entries() for c in tree.disk_components)
            merged = tree.merge_all()
            assert merged._keys == sorted(
                key
                for key, entry in on_disk.items()
                if not entry.tombstone and not hidden(key, filters)
            )
            assert tree.invalidated_buckets == set()
            check_reads()


# ------------------------------------------------ the scan against the heap


def heap_tree_scan(tree, low=None, high=None, include_tombstones=False):
    """``LSMTree.scan`` as it was before the run-at-a-time kernel, verbatim:
    the heap over per-component scans, one frame per entry."""
    components = tree._visible_components()
    for component in components:
        component.retain()
    try:
        sources = [tree.memory.scan(low, high)]
        sources.extend(component.scan(low, high) for component in components)
        scanned_bytes = 0
        scanned_records = 0
        tree.stats.components_opened += len(components)
        for entry in heap_merge_scan(sources, include_tombstones=include_tombstones):
            scanned_records += 1
            scanned_bytes += entry.size_bytes
            if tree._is_invalidated(entry.key):
                continue
            yield entry
        tree.stats.records_read += scanned_records
        tree.stats.bytes_read += scanned_bytes
    finally:
        for component in components:
            component.release()


class TestScanAgainstTheHeap:
    @settings(max_examples=200, deadline=None)
    @given(
        case=carried_column_cases(),
        bounds=st.tuples(st.integers(0, 23), st.integers(0, 23)),
        open_ends=st.tuples(st.booleans(), st.booleans()),
        include_tombstones=st.booleans(),
    )
    def test_same_entries_and_same_stats_under_bounds_and_cleanup_filters(
        self, case, bounds, open_ends, include_tombstones
    ):
        pool, operations = case
        config = small_config(memory_component_bytes=256)
        buckets, _ = play(operations, config, carry_hashes=True)
        ordered = sorted(pool, key=sort_key)
        low, high = sorted(
            (ordered[bounds[0] % len(ordered)], ordered[bounds[1] % len(ordered)]), key=sort_key
        )
        low, high = (None if open_ends[0] else low), (None if open_ends[1] else high)
        for bucket in buckets:
            tree = bucket.tree
            pinned = [c.refcount for c in tree.disk_components]
            before = tree.stats.snapshot()
            expected = list(heap_tree_scan(tree, low, high, include_tombstones))
            oracle_work = tree.stats.diff(before)
            before = tree.stats.snapshot()
            scanned = list(tree.scan(low, high, include_tombstones))
            assert same_objects(scanned, expected)
            assert tree.stats.diff(before) == oracle_work
            assert [c.refcount for c in tree.disk_components] == pinned

    def test_an_abandoned_scan_adds_nothing_and_releases_its_components(self):
        tree = make_tree()
        for burst in range(3):
            for key in range(burst, 60, 3):
                tree.insert(key, "v" * 8)
            tree.flush()
        tree.insert(61, "memory")
        components = list(tree.disk_components)
        assert len(components) == 3
        before = tree.stats.snapshot()
        scan = tree.scan(10, 50)
        assert [c.refcount for c in components] == [0, 0, 0]  # lazy until next()
        assert tree.stats.diff(before) == StorageStats()
        assert [next(scan).key for _ in range(3)] == [10, 11, 12]
        assert [c.refcount for c in components] == [1, 1, 1]
        # A merge in the middle of the scan retires the components; the scan
        # keeps them alive until it lets go.
        tree.merge_all()
        assert not any(c.is_destroyed for c in components)
        scan.close()
        assert all(c.is_destroyed for c in components)
        work = tree.stats.diff(before)
        assert (work.records_read, work.bytes_read) == (0, 0)
        assert work.components_opened == 3  # opened, as before, at the first next()
        # Exhaustion, by contrast, counts what was read.
        before = tree.stats.snapshot()
        rows = list(tree.scan(10, 50))
        work = tree.stats.diff(before)
        assert work.records_read == len(rows) == 41
        assert work.bytes_read == sum(e.size_bytes for e in rows)

    def test_a_destroyed_component_fails_the_scan_at_its_first_next(self):
        tree = make_tree()
        tree.insert(1, "v")
        component = tree.flush()
        component.deactivate()  # behind the tree's back
        scan = tree.scan()
        with pytest.raises(ComponentStateError):
            next(scan)

    def test_a_scan_makes_no_per_entry_sort_key_call(self, monkeypatch):
        import repro.lsm.component as component_module
        import repro.lsm.entry as entry_module

        calls = []

        def counting(key):
            calls.append(key)
            return sort_key(key)

        for module in (component_module, entry_module):
            monkeypatch.setattr(module, "sort_key", counting)
        for size in (30, 300):
            tree = make_tree(memory_component_bytes=1 << 20)
            for burst in range(3):
                for key in range(burst, size, 3):
                    tree.insert((key, "k"), "v")
                tree.flush()
            tree.insert((size, "k"), "v")
            calls.clear()
            assert len(list(tree.scan())) == size + 1
            assert not calls  # unbounded: nothing to bisect, nothing to rank
            assert len(list(tree.scan(low=(2,), high=(9, "z")))) == 8
            # Two bounds, bisected in each of the four sorted runs.
            assert 0 < len(calls) <= 4 * 2 * (2 + size.bit_length())


# ------------------------------------- the reconciled run of the disk list


class TestReconciledDiskRun:
    """A scan keeps what the disk components reconcile to and reconciles only
    the memory run against it; the run is keyed by the component ids."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=carried_column_cases(),
        bounds=st.tuples(st.integers(0, 23), st.integers(0, 23)),
    )
    def test_every_scan_after_every_mutation_matches_the_heap(self, case, bounds):
        pool, operations = case
        ordered = sorted(pool, key=sort_key)
        low, high = sorted(
            (ordered[bounds[0] % len(ordered)], ordered[bounds[1] % len(ordered)]), key=sort_key
        )

        def observe(buckets):
            for bucket in buckets:
                tree = bucket.tree
                pinned = [c.refcount for c in tree.disk_components]
                for scan_low, scan_high in ((None, None), (low, high), (low, None)):
                    for include_tombstones in (False, True):
                        before = tree.stats.snapshot()
                        expected = list(heap_tree_scan(tree, scan_low, scan_high, include_tombstones))
                        oracle_work = tree.stats.diff(before)
                        before = tree.stats.snapshot()
                        scanned = list(tree.scan(scan_low, scan_high, include_tombstones))
                        assert same_objects(scanned, expected)
                        assert tree.stats.diff(before) == oracle_work
                assert [c.refcount for c in tree.disk_components] == pinned

        play(operations, small_config(memory_component_bytes=256), True, observe)

    @staticmethod
    def count_runs(monkeypatch):
        """Counts ``run`` calls per disk component (real and reference)."""
        calls = Counter()
        for cls in (DiskComponent, ReferenceDiskComponent):

            def counting(component, low=None, high=None, _run=cls.run):
                calls[component.component_id] += 1
                return _run(component, low, high)

            monkeypatch.setattr(cls, "run", counting)
        return calls

    def test_an_unchanged_tree_reads_each_component_once(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        tree = make_tree()
        for burst in range(3):
            for key in range(burst, 60, 3):
                tree.insert(key, "v" * 8)
            tree.flush()
        tree.insert(61, "memory")
        ids = [c.component_id for c in tree.disk_components]
        assert len(list(tree.scan())) == 61
        assert [e.key for e in tree.scan(10, 12)] == [10, 11, 12]
        tree.insert(62, "memory")  # a memory write leaves the disk list as it was
        assert len(list(tree.scan(include_tombstones=True))) == 62
        assert calls == Counter(ids)
        # A flush changes the list: the next scan reads every component again.
        calls.clear()
        flushed = tree.flush()
        assert len(list(tree.scan())) == len(list(tree.scan(0, 99))) == 62
        assert calls == Counter(ids + [flushed.component_id])
        # So does a merge: the merged component is read once.
        calls.clear()
        merged = tree.merge_all()
        assert len(list(tree.scan())) == len(list(tree.scan(0, 99))) == 62
        assert calls == Counter([merged.component_id])

    def test_a_split_child_reads_each_reference_once(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        parent = Bucket(ROOT_BUCKET, config=small_config())
        for burst in range(2):
            for key in range(burst, 40, 2):
                parent.tree.insert(key, "v")
            parent.flush()
        for child in parent.split_into():
            references = [c.component_id for c in child.tree.disk_components]
            keys = [e.key for e in child.tree.scan()]
            assert [e.key for e in child.tree.scan()] == keys
            assert sorted(keys) == [k for k in range(40) if child.owns_key(k)]
            assert Counter({i: calls[i] for i in references}) == Counter(references)

    def test_a_run_is_never_served_for_another_component_list(self):
        tree = make_tree()
        for burst in range(3):
            for key in range(burst, 30, 3):
                tree.insert(key, burst)
            tree.flush()
        assert len(list(tree.scan())) == 30
        # Behind the tree's back, as a split fills a child's list: the ids
        # no longer match, so the next scan reconciles the new list.
        dropped = tree.disk_components.pop(0)
        expected = list(heap_tree_scan(tree))
        assert same_objects(list(tree.scan()), expected)
        assert {e.key for e in expected} == set(range(30)) - set(dropped._keys)

    def test_a_merge_lets_go_of_the_retired_components_run(self):
        tree = make_tree()
        for burst in range(2):
            tree.insert(burst, "v")
            tree.flush()
        list(tree.scan())
        assert tree._disk_run is not None
        tree.merge_all()
        assert tree._disk_run is None


# ------------------------------------------- the probe order of point reads


def filter_first_get_entry(tree, key, hashed):
    """``LSMTree.get_entry`` as it was before reads bisected first, verbatim
    but for the count it returns: each disk component's reference prefix and
    Bloom filter first, its sorted run only past them.  Returns the entry
    and the number of disk components the probe opened."""
    if tree._invalid_buckets and tree._is_invalidated(key):
        return None, 0
    stats = tree.stats
    entry = tree.memory.get(key)
    if entry is not None:
        stats.records_read += 1
        return entry, 0
    opened = 0
    for component in tree.disk_components:
        if not component.may_contain(key, hashed):
            stats.bloom_negative_skips += 1
            continue
        component.retain()
        try:
            stats.components_opened += 1
            opened += 1
            entry = component.get(key, hashed)
        finally:
            component.release()
        if entry is not None:
            stats.records_read += 1
            stats.bytes_read += entry.size_bytes
            return entry, opened
    return None, opened


#: The carried-column shapes plus a pool that mixes ``1`` and ``(1,)``.
_PROBE_SHAPES = {
    **_KEY_SHAPES,
    "mixed": st.one_of(st.integers(-3, 12), st.tuples(st.integers(-3, 12))),
}

#: Keys no pool above holds, some of a type no pool key orders against.
_ABSENT = [10**30, (99, 99), (99,), "absent", b"absent", 2.5]


def equal_twins(key):
    """``key`` and the keys of other types equal to it (``1``, ``1.0``,
    ``True``; element by element for a tuple)."""
    if isinstance(key, tuple):
        return [tuple(parts) for parts in itertools.product(*map(equal_twins, key))]
    twins = [key]
    if isinstance(key, float) and key.is_integer():
        twins.append(int(key))
    elif isinstance(key, int) and not isinstance(key, bool):
        try:
            if float(key) == key:
                twins.append(float(key))
        except OverflowError:
            pass
    if isinstance(key, (int, float)) and key in (0, 1):
        twins.append(bool(key))
    return twins


_SCALAR_KEYS = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
)
_HASHABLE_KEYS = st.one_of(
    _SCALAR_KEYS, st.tuples(_SCALAR_KEYS), st.tuples(_SCALAR_KEYS, _SCALAR_KEYS)
)


class TestProbeOrder:
    """A point read bisects each disk component's sorted run first and asks
    its Bloom filter only about a key the run lacks.  A filter has no false
    negatives, so a key the run holds is one the filter-first order opened
    too: the answers and every counter are the filter-first order's."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=carried_column_cases(_PROBE_SHAPES),
        bits_per_key=st.sampled_from([1, 2, 10]),
    )
    def test_reads_match_the_filter_first_order(self, case, bits_per_key):
        pool, operations = case
        config = small_config(memory_component_bytes=256, bloom_bits_per_key=bits_per_key)
        buckets, _ = play(operations, config, carry_hashes=True)
        probes = [twin for key in pool for twin in equal_twins(key)] + _ABSENT
        hashes = [hash_key(key) for key in probes]
        for bucket in buckets:
            tree = bucket.tree
            pinned = [c.refcount for c in tree.disk_components]
            before = tree.stats.snapshot()
            expected = [filter_first_get_entry(tree, k, h) for k, h in zip(probes, hashes)]
            oracle_work = tree.stats.diff(before)
            before = tree.stats.snapshot()
            looped = []
            for key, hashed in zip(probes, hashes):
                opened = tree.stats.components_opened
                entry = tree.get_entry(key, hashed)
                looped.append((entry, tree.stats.components_opened - opened))
            assert same_pairs(looped, expected)
            assert tree.stats.diff(before) == oracle_work
            before = tree.stats.snapshot()
            entries, opened = tree.get_many(probes, hashes)
            assert same_pairs(list(zip(entries, opened)), expected)
            assert tree.stats.diff(before) == oracle_work
            assert [c.refcount for c in tree.disk_components] == pinned

    @settings(max_examples=300, deadline=None)
    @given(key=_HASHABLE_KEYS, other=_HASHABLE_KEYS)
    def test_equal_keys_hash_equal(self, key, other):
        for twin in equal_twins(key):
            assert twin == key and hash_key(twin) == hash_key(key)
        if other == key:
            assert hash_key(other) == hash_key(key)

    def test_integral_floats_hash_as_their_ints(self):
        assert equal_twins(-1) == [-1, -1.0] and len(equal_twins((1, 0.0))) == 9
        for key in (-1, -(2**40), 2**61, 2**70, (3, -2)):
            assert len({hash_key(twin) for twin in equal_twins(key)}) == 1

    @staticmethod
    def count_builds(monkeypatch):
        """The key count of every ``BloomFilter.build``, in order."""
        built = []
        build = BloomFilter.build.__func__

        def counting(cls, keys, *args, **kwargs):
            built.append(len(keys))
            return build(cls, keys, *args, **kwargs)

        monkeypatch.setattr(BloomFilter, "build", classmethod(counting))
        return built

    def test_a_component_builds_its_filter_on_its_first_miss(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        tree = make_tree()
        for burst in range(3):
            for key in range(burst, 30, 3):
                tree.insert(key, burst)
            tree.flush()
        newest, middle, oldest = tree.disk_components
        # A run of hits: every key is found in the first component probed.
        hits = newest._keys
        entries, opened = tree.get_many(hits, [hash_key(key) for key in hits])
        assert all(entries) and opened == [1] * len(hits)
        assert builds == []
        # The first miss builds exactly the filter of the component it missed.
        assert tree.get_entry(middle._keys[0]) is not None
        assert builds == [len(newest)]
        assert (newest._bloom is not None, middle._bloom, oldest._bloom) == (
            True,
            None,
            None,
        )
        # The oldest component meets only keys it holds: it never builds one.
        everything = list(range(30))
        assert all(tree.get_many(everything, [hash_key(key) for key in everything])[0])
        assert builds == [len(newest), len(middle)] and oldest._bloom is None
        # Until a key it lacks reaches it.
        assert tree.get_entry(99) is None
        assert builds == [len(newest), len(middle), len(oldest)]

    def test_a_hit_through_a_reference_builds_no_filter(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        parent = Bucket(ROOT_BUCKET, config=small_config())
        for key in range(40):
            parent.tree.insert(key, "v")
        parent.flush()
        for child in parent.split_into():
            owned = [key for key in range(40) if child.owns_key(key)]
            assert [child.tree.get(key) for key in owned] == ["v"] * len(owned)
        assert builds == []


class TestRunLengths:
    """``LSMTree.get_many`` is the ``get_entry`` loop at every run length:
    below its short-run cut it runs that loop, from the cut on it probes the
    run a component at a time.  Twin trees built by the same operations (so
    tombstones, reference components and lazy-cleanup filters included)
    answer runs of lengths on both sides of the cut, one through the loop
    and one through ``get_many``: the entries, each key's opens, the stats
    and the Bloom filters built must be the same."""

    @settings(max_examples=100, deadline=None)
    @given(
        case=carried_column_cases(_PROBE_SHAPES),
        lengths=st.lists(st.integers(1, 2 * SHORT_RUN), min_size=1, max_size=12),
    )
    def test_get_many_equals_the_get_entry_loop(self, case, lengths):
        pool, operations = case
        config = small_config(memory_component_bytes=256)
        looped_buckets, _ = play(operations, config, carry_hashes=True)
        run_buckets, _ = play(operations, config, carry_hashes=True)
        probes = [twin for key in pool for twin in equal_twins(key)] + _ABSENT
        for looped_bucket, run_bucket in zip(looped_buckets, run_buckets):
            looped_tree, run_tree = looped_bucket.tree, run_bucket.tree
            pinned = [c.refcount for c in run_tree.disk_components]
            start = 0
            for length in itertools.cycle(lengths):
                if start >= len(probes):
                    break
                run = probes[start : start + length]
                start += length
                hashes = [hash_key(key) for key in run]
                before = looped_tree.stats.snapshot(), run_tree.stats.snapshot()
                looped = []
                for key, hashed in zip(run, hashes):
                    opened = looped_tree.stats.components_opened
                    entry = looped_tree.get_entry(key, hashed)
                    looped.append((entry, looped_tree.stats.components_opened - opened))
                entries, opened = run_tree.get_many(run, hashes)
                assert list(zip(entries, opened)) == looped
                assert run_tree.stats.diff(before[1]) == looped_tree.stats.diff(before[0])
            assert [c.refcount for c in run_tree.disk_components] == pinned
        built = [
            [c._bloom is not None for c in reachable_components(buckets)]
            for buckets in (looped_buckets, run_buckets)
        ]
        assert built[0] == built[1]


def same_pairs(got, expected):
    """The same ``(entry, opened)`` pairs, each entry the same object."""
    return len(got) == len(expected) and all(
        entry is other and count == other_count
        for (entry, count), (other, other_count) in zip(got, expected)
    )
