"""The component-open count a point lookup reports for its own probe.

``StoragePartition.lookup_many`` returns, next to each key's record, the
number of disk components that key's probe opened (read off the one bucket
tree it searched); the `Dataset` verbs price each read with it.  The oracle
here is what that count replaced: ``stats_snapshot().components_opened``
summed over every index of the partition, sampled before and after the probe.
"""

import pytest

from repro.common.hashutil import hash_key
from repro.lsm.component import DiskComponent, ReferenceDiskComponent

from ..api.test_dataset_batch_verbs import open_split

ROWS = 2800


@pytest.fixture
def split_db():
    """Every bucket: [flushed, reference, reference] disk components plus a
    live memory component holding rewrites of keys 0, 35, 70, ... (the
    32 KiB / 48 KiB config of the committed scenarios)."""
    db, _ = open_split()
    yield db
    db.close()


def probe(partition, key):
    """(record, reported count, oracle count) of a one-key lookup."""
    before = partition.stats_snapshot().components_opened
    records, opened = partition.lookup_many([key], [hash_key(key)])
    oracle = partition.stats_snapshot().components_opened - before
    return records[0], opened[0], oracle


def holder_of(partition, key):
    """The newest component of the owning bucket that stores ``key``."""
    tree = partition.primary.bucket_for_key(key).tree
    if tree.memory.get(key) is not None:
        return tree.memory
    return next(c for c in tree.disk_components if c.get(key) is not None)


class TestReportedCountMatchesTheOldOracle:
    def test_memory_hit_opens_nothing(self, split_db):
        runtime = split_db.cluster.dataset("t")
        for key in (0, 35, 70, 2765):
            partition = runtime.partitions[runtime.partition_of_key(key)]
            assert holder_of(partition, key) is partition.primary.bucket_for_key(key).tree.memory
            record, reported, oracle = probe(partition, key)
            assert record["v"].startswith("y")
            assert reported == oracle == 0

    def test_reference_component_counts_its_target_once(self, split_db):
        runtime = split_db.cluster.dataset("t")
        through_reference = 0
        for key in range(1, 400):
            partition = runtime.partitions[runtime.partition_of_key(key)]
            holder = holder_of(partition, key)
            if not isinstance(holder, ReferenceDiskComponent):
                continue
            through_reference += 1
            tree = partition.primary.bucket_for_key(key).tree
            # Components the probe must open: every one, newest first, whose
            # filter admits the key, down to the reference that holds it —
            # each counted once, the reference's target never on top of it.
            expected = 0
            for component in tree.disk_components:
                expected += component.may_contain(key)
                if component is holder:
                    break
            record, reported, oracle = probe(partition, key)
            assert record == {"k": key, "v": "x" * 64}
            assert reported == oracle == expected >= 1
        assert through_reference > 100

    def test_flushed_hit_and_local_miss(self, split_db):
        runtime = split_db.cluster.dataset("t")
        key = 2799
        partition = runtime.partitions[runtime.partition_of_key(key)]
        assert isinstance(holder_of(partition, key), DiskComponent)
        record, reported, oracle = probe(partition, key)
        assert record is not None and reported == oracle == 1
        for key in (9999, -4, 10**12):
            partition = runtime.partitions[runtime.partition_of_key(key)]
            record, reported, oracle = probe(partition, key)
            # A false-positive filter may open a component; the two counts
            # still agree.
            assert record is None and reported == oracle

    def test_reads_between_rebalance_phases_and_of_moved_buckets(self, split_db):
        runtime = split_db.cluster.dataset("t")
        stale = runtime.routing_snapshot()
        keys = list(range(0, ROWS, 7)) + [9999]
        steps = split_db.rebalance_steps(add=1)
        phases = []
        while True:
            try:
                phases.append(next(steps).kind)
            except StopIteration as done:
                assert done.value.committed
                break
            for key in keys:
                partition = runtime.partitions[stale.partition_of(key)]
                record, reported, oracle = probe(partition, key)
                assert reported == oracle
                # The last segment is yielded after the commit, when moved
                # buckets have already left their old partition.
                moved_away = stale.partition_of(key) != runtime.partition_of_key(key)
                assert (record is None) == (key == 9999 or moved_away)
        assert {"initialization", "move", "finalization"} <= set(phases)
        # The directory moved on; a reader still holding the old copy probes
        # the old owner, where the bucket is no longer local: a free miss.
        moved = [key for key in keys if stale.partition_of(key) != runtime.partition_of_key(key)]
        assert len(moved) > 20
        for key in moved:
            record, reported, oracle = probe(runtime.partitions[stale.partition_of(key)], key)
            assert record is None and reported == oracle == 0
            live = runtime.partitions[runtime.partition_of_key(key)]
            record, reported, oracle = probe(live, key)
            assert record is not None and reported == oracle

    def test_dataset_get_charges_the_reported_count(self, split_db):
        dataset = split_db.dataset("t")
        runtime = split_db.cluster.dataset("t")
        cost = split_db.cluster.cost
        page = split_db.config.lsm.page_bytes
        samples = []
        split_db.on("op.read", lambda event: samples.append(event["latency_seconds"]))
        for key in (35, 3, 2799, 9999):
            partition = runtime.partitions[runtime.partition_of_key(key)]
            before = partition.stats_snapshot().components_opened
            dataset.get(key)
            opened = partition.stats_snapshot().components_opened - before
            assert samples[-1] == (
                cost.rpc_time(2)
                + cost.component_open_time(opened)
                + (opened * page) / cost.config.disk_read_bytes_per_sec
            )
        assert len(set(samples)) > 1


class TestRunCountsMatchTheOneKeyCounts:
    """A run's per-key counts are the counts each key's own probe reports,
    and together they are the run's stats delta."""

    def test_every_partition_answers_a_run_of_its_keys(self, split_db):
        runtime = split_db.cluster.dataset("t")
        keys = list(range(0, ROWS, 3)) + [9999, -4, 35, 35, 5000]
        counts = []
        for pid, partition in runtime.partitions.items():
            mine = [key for key in keys if runtime.partition_of_key(key) == pid]
            assert len(partition.primary.buckets()) > 1 and len(mine) > 100
            alone = [probe(partition, key) for key in mine]
            assert all(reported == oracle for _, reported, oracle in alone)
            before = partition.stats_snapshot()
            records, opened = partition.lookup_many(mine, [hash_key(key) for key in mine])
            delta = partition.stats_snapshot().diff(before)
            assert records == [record for record, _, _ in alone]
            assert opened == [reported for _, reported, _ in alone]
            assert delta.components_opened == sum(opened)
            assert delta.records_read == sum(record is not None for record in records)
            counts += opened
        assert {0, 1, 2} <= set(counts)
