"""Soundness of the feed's settled-partition skip.

Within one ``DataFeed.ingest`` call a maintenance sweep skips every partition
whose last pass in the call reported idle and that no batch has written to
since.  That is sound when a pass is a deterministic function of partition
state and an idle pass leaves that state alone, so a second pass over an
unchanged idle partition is idle again and changes nothing.

Generated insert, upsert, ``upsert_each`` and delete sequences on tiny split
configs check both halves:

* every idle pass the feed (or a delete) makes is followed by a second pass,
  which must be idle and leave every tree's component ids, memory contents,
  the local directory and every ``StorageStats`` unchanged;
* the skip rule and an all-partitions sweep (every partition, every sweep, as
  the feed swept before the rule) end in the same partition state and return
  the same reports.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cluster.feed as feed_module
from repro.api import (
    KIB,
    BucketingConfig,
    ClusterConfig,
    Database,
    LSMConfig,
    SecondaryIndexSpec,
)
from repro.cluster.partition import StoragePartition

NODES, PARTITIONS_PER_NODE = 2, 2
KEYS = 600


class NeverSettled(set):
    """A settled set that never takes a member: every sweep visits every
    partition."""

    def add(self, pid):
        pass


def trees(partition):
    """Every LSM-tree of ``partition``, named."""
    named = [(bucket.bucket_id, bucket.tree) for bucket in partition.primary.buckets()]
    named.append(("pk", partition.primary_key_index))
    named.extend(sorted(partition.secondary_indexes.items()))
    return named


def contents(entries):
    return [(e.key, e.value, e.seqnum, e.tombstone, e.size_bytes) for e in entries]


def partition_state(partition, ids):
    """What a pass could change in ``partition``; with ``ids``, the
    components' identities too (only meaningful within one database)."""
    primary = partition.primary
    state = [
        primary.directory.buckets,
        primary.split_count,
        primary.splits_enabled,
        primary.aggregated_stats(),
    ]
    for name, tree in trees(partition):
        disk = [(type(c).__name__, contents(c.hashed_entries()[0])) for c in tree.disk_components]
        state.append(
            (
                name,
                contents(tree.memory._entries.values()),
                tree.memory.size_bytes,
                disk,
                tree.stats.snapshot(),
                sorted(tree.invalidated_buckets),
            )
        )
        if ids:
            state.append(
                (tree.memory.component_id, [c.component_id for c in tree.disk_components])
            )
    return state


def idle_twice(maintain):
    """``StoragePartition.maintain`` that, after an idle pass, runs a second
    one and checks it is idle and changed nothing."""

    def checked(partition, *args, **kwargs):
        report = maintain(partition, *args, **kwargs)
        if report.idle:
            before = partition_state(partition, ids=True)
            again = maintain(partition, *args, **kwargs)
            assert again.idle
            assert partition_state(partition, ids=True) == before
        return report

    return checked


batch_sizes = st.sampled_from([1, 2, 5, 16, 40])


@st.composite
def writes(draw, verb):
    """``(verb, rows, batch_size)``: exact multiples of the batch drawn as
    often as ragged tails."""
    batch_size = draw(batch_sizes)
    batches = draw(st.integers(1, max(1, 80 // batch_size)))
    tail = draw(st.integers(0, batch_size - 1)) if draw(st.booleans()) else 0
    return verb, batches * batch_size + tail, batch_size


operations = st.lists(
    st.one_of(
        writes("insert"),
        writes("upsert"),
        st.tuples(st.just("upsert_each"), st.integers(1, 6), st.just(1)),
        st.tuples(st.just("delete"), st.integers(1, 30), st.just(0)),
    ),
    min_size=1,
    max_size=6,
)


def run(config, secondary, preload, ops, seed):
    """Open a database, apply ``ops`` and return ``(reports, state)``."""
    db = Database(config, strategy="dynahash")
    indexes = [SecondaryIndexSpec("by_c", ("c",))] if secondary else []
    dataset = db.create_dataset("t", primary_key="k", secondary_indexes=indexes)
    rng = random.Random(seed)

    def rows(count):
        return [
            {"k": key, "c": key % 5, "v": "x" * rng.randrange(8, 160)}
            for key in (rng.randrange(KEYS) for _ in range(count))
        ]

    reports = [dataset.insert(rows(preload), batch_size=200)]
    for verb, count, batch_size in ops:
        if verb == "insert":
            reports.append(dataset.insert(rows(count), batch_size=batch_size))
        elif verb == "upsert":
            reports.append(dataset.upsert(rows(count), batch_size=batch_size))
        elif verb == "upsert_each":
            reports.append(dataset.upsert_each(rows(count)))
        else:
            reports.append(dataset.delete([rng.randrange(KEYS) for _ in range(count)]))
    partitions = db.cluster.dataset("t").partitions
    state = [partition_state(partitions[pid], ids=False) for pid in sorted(partitions)]
    db.close()
    return reports, state


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    memory_kib=st.integers(2, 32),
    bucket_kib=st.integers(3, 48),
    secondary=st.booleans(),
    preload=st.integers(0, 400),
    ops=operations,
    seed=st.integers(0, 2**16),
)
def test_the_skip_rule_is_sound(memory_kib, bucket_kib, secondary, preload, ops, seed):
    config = ClusterConfig(
        num_nodes=NODES,
        partitions_per_node=PARTITIONS_PER_NODE,
        seed=seed,
        lsm=LSMConfig(memory_component_bytes=memory_kib * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=bucket_kib * KIB),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StoragePartition, "maintain", idle_twice(StoragePartition.maintain))
        skipped = run(config, secondary, preload, ops, seed)
    with pytest.MonkeyPatch.context() as patch:
        passes = []
        maintain = StoragePartition.maintain

        def counted(partition, *args, **kwargs):
            passes.append(partition.partition_id)
            return maintain(partition, *args, **kwargs)

        patch.setattr(StoragePartition, "maintain", counted)
        patch.setattr(feed_module, "set", NeverSettled, raising=False)
        swept = run(config, secondary, preload, ops, seed)
    # The reference really swept every partition every time: one sweep per
    # batch and one at the end of each feed call, two per upsert_each row,
    # one per delete.
    sweeps = preload // 200 + 1
    for verb, count, batch_size in ops:
        if verb == "delete":
            sweeps += 1
        elif verb == "upsert_each":
            sweeps += 2 * count
        else:
            sweeps += count // batch_size + 1
    assert passes == list(range(NODES * PARTITIONS_PER_NODE)) * sweeps
    assert skipped == swept
