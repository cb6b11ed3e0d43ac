"""Tests for the bucketed LSM-tree (local directory of per-bucket LSM-trees)."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import BucketingConfig, LSMConfig
from repro.common.errors import BucketNotFoundError, StorageError
from repro.common.hashutil import hash_key
from repro.bucketed.bucket import Bucket
from repro.bucketed.bucketed_lsm import BucketedLSMTree
from repro.hashing.bucket_id import ROOT_BUCKET, BucketId, covers_exactly


def make_tree(
    initial_depth=1,
    max_bucket_bytes=1 << 30,
    memory_bytes=1 << 20,
    static=False,
    partition_id=0,
):
    initial = (
        [ROOT_BUCKET]
        if initial_depth == 0
        else [BucketId(p, initial_depth) for p in range(1 << initial_depth)]
    )
    return BucketedLSMTree(
        name="primary",
        partition_id=partition_id,
        initial_buckets=initial,
        lsm_config=LSMConfig(memory_component_bytes=memory_bytes),
        bucketing_config=BucketingConfig(max_bucket_bytes=max_bucket_bytes, static=static),
    )


def land(tree, rows):
    """Write ``{key: value}`` rows as one run, as ``StoragePartition.insert_many``
    does: ``route_many``, then one ``LSMTree.insert_many`` per touched bucket
    tree.  A ``None`` value is a delete."""
    keys = list(rows)
    values = [rows[key] for key in keys]
    hashes = [hash_key(key) for key in keys]
    tombstones = [value is None for value in values]
    for bucket_tree, positions in tree.route_many(hashes):
        bucket_tree.insert_many(keys, values, hashes, tombstones=tombstones, positions=positions)


def lookup(tree, key):
    """A one-key ``lookup_many``: ``key``'s live value (``None`` when absent
    or deleted) and the disk components its probe opened."""
    (value,), (opened,) = tree.lookup_many([key], [hash_key(key)])
    return value, opened


def get(tree, key):
    """The live value of ``key`` (``None`` when absent or deleted)."""
    return lookup(tree, key)[0]


class TestConstruction:
    def test_initial_buckets_registered(self):
        tree = make_tree(initial_depth=2)
        assert tree.bucket_count == 4
        assert covers_exactly(tree.bucket_ids)

    def test_requires_at_least_one_bucket(self):
        with pytest.raises(StorageError):
            BucketedLSMTree("primary", 0, initial_buckets=[])

    def test_manifest_forced_at_creation(self):
        tree = make_tree(initial_depth=1)
        assert tree.manifest.valid_bucket_ids(durable=True) == {(0, 1), (1, 1)}


class TestReadWrite:
    def test_point_lookup_roundtrip(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: f"v{key}" for key in range(100)})
        assert all(get(tree, key) == f"v{key}" for key in range(100))

    def test_writes_are_routed_to_owning_bucket(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: key for key in range(200)})
        for bucket in tree.buckets():
            for entry in bucket.scan():
                assert bucket.bucket_id.contains_key(entry.key)

    def test_delete(self):
        tree = make_tree()
        land(tree, {5: "five"})
        land(tree, {5: None})
        assert get(tree, 5) is None

    def test_lookup_and_len(self):
        tree = make_tree()
        land(tree, {key: key for key in range(30)})
        land(tree, {7: None})
        assert get(tree, 3) == 3
        assert get(tree, 7) is None
        assert len(tree) == 29

    def test_lookup_is_one_probe(self):
        # A point read probes its one bucket tree once: the stats move as
        # one LSMTree.get_entry on that tree moves them.
        tree = make_tree()
        land(tree, {key: "x" * 40 for key in range(30)})
        tree.flush_all()
        land(tree, {7: None})
        for key, present in ((3, True), (7, False), (1000, False)):
            by_lookup = tree.aggregated_stats()
            assert (get(tree, key) is not None) is present
            by_lookup = tree.aggregated_stats().diff(by_lookup)
            by_get_entry = tree.aggregated_stats()
            tree.bucket_for_key(key).tree.get_entry(key)
            by_get_entry = tree.aggregated_stats().diff(by_get_entry)
            assert by_lookup == by_get_entry
        # One flushed hit: one record, one component, that entry's bytes.
        before = tree.aggregated_stats()
        assert get(tree, 3) is not None
        delta = tree.aggregated_stats().diff(before)
        assert (delta.records_read, delta.components_opened) == (1, 1)
        assert delta.bytes_read == tree.bucket_for_key(3).tree.peek(3).size_bytes

    def test_lookup_reports_the_probes_component_opens(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(40)})
        tree.flush_all()
        land(tree, {100: "memory"})
        assert lookup(tree, 100) == ("memory", 0)
        expected = {3: 3, 100: "memory", 12345: None}
        for key in (3, 100, 12345):
            before = tree.aggregated_stats().components_opened
            value, opened = lookup(tree, key)
            assert opened == tree.aggregated_stats().components_opened - before
            assert value == expected[key]
        assert lookup(tree, 3) == (3, 1)

    def test_lookup_of_a_bucket_that_is_not_local_is_a_free_miss(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(40)})
        tree.flush_all()
        moved = tree.bucket_for_key(3).bucket_id
        tree.remove_bucket(moved)
        before = tree.aggregated_stats()
        assert lookup(tree, 3) == (None, 0)
        assert tree.aggregated_stats() == before

    def test_bucket_lookup_errors(self):
        tree = make_tree(initial_depth=1)
        with pytest.raises(BucketNotFoundError):
            tree.bucket(BucketId(0b101, 3))


class TestScan:
    def test_unordered_scan_returns_everything(self):
        tree = make_tree(initial_depth=2)
        keys = list(range(100))
        land(tree, {key: key for key in keys})
        assert sorted(e.key for e in tree.scan()) == keys

    def test_unordered_scan_not_necessarily_sorted(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: key for key in range(100)})
        unordered = [e.key for e in tree.scan(ordered=False)]
        # It contains all keys; global sortedness is not guaranteed (and with
        # hashing it is essentially never sorted).
        assert sorted(unordered) == list(range(100))

    def test_ordered_scan_is_globally_sorted(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: key for key in range(100)})
        assert [e.key for e in tree.scan(ordered=True)] == list(range(100))

    def test_scan_bounds_apply_per_bucket(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: key for key in range(50)})
        result = sorted(e.key for e in tree.scan(low=10, high=20))
        assert result == list(range(10, 21))


class TestMaintenanceAndSplits:
    def test_maintain_flushes_over_budget_buckets(self):
        tree = make_tree(memory_bytes=256)
        land(tree, {key: "x" * 64 for key in range(50)})
        report = tree.maintain()
        assert report.flush_bytes > 0

    def test_dynamic_split_triggers_on_size(self):
        tree = make_tree(initial_depth=1, max_bucket_bytes=4096, memory_bytes=1024)
        for key in range(300):
            land(tree, {key: "x" * 64})
            tree.maintain()
        assert tree.bucket_count > 2
        assert covers_exactly(tree.bucket_ids)
        # All records still readable after splits.
        assert all(get(tree, key) == "x" * 64 for key in range(300))

    def test_static_config_never_splits(self):
        tree = make_tree(initial_depth=1, max_bucket_bytes=1024, memory_bytes=512, static=True)
        for key in range(300):
            land(tree, {key: "x" * 64})
            tree.maintain()
        assert tree.bucket_count == 2

    def test_disable_splits_during_rebalance(self):
        tree = make_tree(initial_depth=1, max_bucket_bytes=1024, memory_bytes=512)
        tree.disable_splits()
        for key in range(200):
            land(tree, {key: "x" * 64})
            tree.maintain()
        assert tree.bucket_count == 2
        tree.enable_splits()
        for key in range(200, 400):
            land(tree, {key: "x" * 64})
            tree.maintain()
        assert tree.bucket_count > 2

    def test_enable_splits_does_not_override_static(self):
        tree = make_tree(static=True)
        tree.enable_splits()
        assert not tree.splits_enabled

    def test_split_count_recorded(self):
        tree = make_tree(initial_depth=1, max_bucket_bytes=2048, memory_bytes=512)
        for key in range(300):
            land(tree, {key: "x" * 64})
            tree.maintain()
        assert tree.split_count == tree.bucket_count - 2

    def test_explicit_split_updates_directory_and_manifest(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(50)})
        target = tree.bucket_ids[0]
        result = tree.split(target)
        assert target not in tree.bucket_ids
        assert result.low_child.bucket_id in tree.bucket_ids
        assert covers_exactly(tree.bucket_ids)
        durable = tree.manifest.valid_bucket_ids(durable=True)
        assert (result.low_child.bucket_id.prefix, result.low_child.depth) in durable

    def test_a_retired_parent_bucket_is_not_pinned(self):
        tree = make_tree(initial_depth=1)
        target = tree.bucket_ids[0]
        parent = tree.bucket(target)
        for start in (0, 100):  # two disk components, so each child can merge
            land(tree, {key: "x" * 64 for key in range(start, start + 100)})
            parent.flush()
        assert list(parent.scan())  # the tree caches its reconciled run
        components = parent.tree.disk_components
        watched = [weakref.ref(parent), weakref.ref(parent.tree)]
        watched += [weakref.ref(component) for component in components]
        assert len(components) == 2

        result = tree.split(target)
        for child in result.children:
            child.tree.merge_all()  # drops the child's references
        del parent, components, child, result
        gc.collect()
        assert [ref() for ref in watched] == [None] * len(watched)
        assert tree.split_count == 1


class TestRebalanceOperations:
    def test_snapshot_bucket_flushes_and_retains(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(40)})
        bucket_id = tree.bucket_ids[0]
        snapshot = tree.snapshot_bucket(bucket_id)
        assert all(component.refcount >= 1 for component in snapshot)
        total_snapshot_keys = sum(len(c) for c in snapshot)
        assert total_snapshot_keys == sum(
            1 for k in range(40) if bucket_id.contains_key(k)
        )

    def test_adopt_bucket_from_entries(self):
        source = make_tree(initial_depth=1, partition_id=0)
        land(source, {key: f"v{key}" for key in range(60)})
        moving = source.bucket_ids[0]
        entries = source.bucket(moving).entries()

        destination = BucketedLSMTree(
            "primary",
            partition_id=1,
            initial_buckets=[moving.sibling()] if moving.depth else [ROOT_BUCKET],
            lsm_config=LSMConfig(memory_component_bytes=1 << 20),
        )
        received = Bucket(moving, config=destination.lsm_config)
        received.tree.add_loaded_component(entries)
        destination.adopt_bucket(received)
        assert moving in destination.bucket_ids
        for entry in entries:
            assert get(destination, entry.key) == entry.value

    def test_adopt_bucket_is_idempotent(self):
        tree = make_tree(initial_depth=1)
        bucket_id = tree.bucket_ids[0]
        existing = tree.bucket(bucket_id)
        tree.adopt_bucket(Bucket(bucket_id))
        assert tree.bucket(bucket_id) is existing

    def test_remove_bucket_is_idempotent_and_reclaims(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(40)})
        victim_id = tree.bucket_ids[0]
        victim = tree.bucket(victim_id)
        victim.flush()
        components = list(victim.disk_components)
        tree.remove_bucket(victim_id)
        tree.remove_bucket(victim_id)  # idempotent
        assert victim_id not in tree.bucket_ids
        assert all(component.is_destroyed for component in components)

    def test_removed_bucket_survives_for_active_readers(self):
        """Reference counting: an in-flight snapshot keeps reading after removal."""
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(40)})
        victim_id = tree.bucket_ids[0]
        snapshot = tree.snapshot_bucket(victim_id)
        tree.remove_bucket(victim_id)
        assert all(not component.is_destroyed for component in snapshot)
        from repro.bucketed.bucket import Bucket

        Bucket.release_snapshot(snapshot)
        assert all(component.is_destroyed for component in snapshot)

    def test_bucket_sizes_reflect_data_skew(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: "x" * 32 for key in range(400)})
        sizes = tree.bucket_sizes()
        assert len(sizes) == 4
        assert all(size > 0 for size in sizes.values())
        assert sum(sizes.values()) == tree.size_bytes


class TestAggregation:
    def test_aggregated_stats_sum_buckets(self):
        tree = make_tree(initial_depth=2)
        land(tree, {key: key for key in range(100)})
        tree.flush_all()
        stats = tree.aggregated_stats()
        assert stats.records_written == 100
        assert stats.flush_count >= 1

    def test_component_count(self):
        tree = make_tree(initial_depth=1)
        land(tree, {key: key for key in range(20)})
        tree.flush_all()
        assert tree.component_count >= 1


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "maintain"]),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=120,
        )
    )
    def test_bucketed_tree_matches_model_dict(self, operations):
        """Under inserts/deletes/splits the tree always matches a plain dict."""
        tree = make_tree(initial_depth=1, max_bucket_bytes=2048, memory_bytes=512)
        model = {}
        for op, key in operations:
            if op == "insert":
                land(tree, {key: f"value-{key}"})
                model[key] = f"value-{key}"
            elif op == "delete":
                land(tree, {key: None})
                model.pop(key, None)
            else:
                tree.maintain()
        assert covers_exactly(tree.bucket_ids)
        for key in range(51):
            assert get(tree, key) == model.get(key)
        assert sorted(e.key for e in tree.scan(ordered=True)) == sorted(model.keys())
