"""An upsert keeps every secondary index true.

A write to a key that already has a record reads the old record and writes
antimatter for its secondary entries the new record does not rewrite, as a
delete does, so a secondary index never holds an entry the primary index no
longer has.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig, SecondaryIndexSpec
from repro.lsm.entry import sort_key

INDEXES = [
    SecondaryIndexSpec("by_c", ("c",)),
    SecondaryIndexSpec("by_c_d", ("c", "d"), included_fields=("v",)),
]


def secondary_entries(db, name, index):
    """``(key, covered value)`` of every live entry of one secondary index."""
    partitions = db.cluster.dataset(name).partitions
    return [
        (entry.key, entry.value)
        for pid in sorted(partitions)
        for entry in partitions[pid].scan_secondary(index)
    ]


def rebuilt_from_primary(db, name, spec):
    """The index a fresh build over the primary index's live records makes."""
    partitions = db.cluster.dataset(name).partitions
    entries = []
    for pid in sorted(partitions):
        run = [
            (spec.secondary_key(entry.value) + (entry.key,), spec.covered_value(entry.value))
            for entry in partitions[pid].scan_primary()
        ]
        entries.extend(sorted(run, key=lambda pair: sort_key(pair[0])))
    return entries


class TestUpsertRegression:
    def test_an_upsert_replaces_the_secondary_entry(self):
        with Database(ClusterConfig(num_nodes=2), strategy="dynahash") as db:
            dataset = db.create_dataset(
                "t", primary_key="id", secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))]
            )
            dataset.insert([{"id": 1, "c": "old"}])
            dataset.upsert([{"id": 1, "c": "new"}])
            # The old entry ('old', 1) used to survive beside the new one.
            assert [key for key, _ in secondary_entries(db, "t", "by_c")] == [("new", 1)]
            assert dataset.count() == 1

    def test_a_key_written_twice_in_one_batch(self):
        with Database(ClusterConfig(num_nodes=2), strategy="dynahash") as db:
            dataset = db.create_dataset(
                "t", primary_key="id", secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))]
            )
            dataset.insert([{"id": 1, "c": "a"}, {"id": 2, "c": "a"}, {"id": 1, "c": "b"}])
            dataset.upsert([{"id": 2, "c": "c"}, {"id": 1, "c": "d"}, {"id": 2, "c": "a"}])
            keys = [key for key, _ in secondary_entries(db, "t", "by_c")]
            assert sorted(keys) == [("a", 2), ("d", 1)]


steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "upsert"]),
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(0, 3), st.integers(0, 2)),
                min_size=1,
                max_size=40,
            ),
            st.integers(1, 16),
        ),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 70), max_size=10), st.none()),
    ),
    min_size=1,
    max_size=8,
)


class TestSecondaryIndexesMatchThePrimary:
    @settings(max_examples=40, deadline=None)
    @given(steps=steps)
    def test_after_any_write_sequence(self, steps):
        # Small components and buckets, so old records sit in memory, on disk
        # and behind split references by turns.
        db = Database(
            ClusterConfig(
                num_nodes=2,
                partitions_per_node=2,
                strategy="dynahash",
                lsm=LSMConfig(memory_component_bytes=2 * KIB),
                bucketing=BucketingConfig(max_bucket_bytes=4 * KIB),
            )
        )
        dataset = db.create_dataset("t", primary_key="k", secondary_indexes=INDEXES)
        for action, arg, batch_size in steps:
            if action == "delete":
                dataset.delete(arg)
            else:
                rows = [{"k": k, "c": c, "d": d, "v": f"{k}-{c}"} for k, c, d in arg]
                getattr(dataset, action)(rows, batch_size=batch_size)
            for spec in INDEXES:
                assert secondary_entries(db, "t", spec.name) == rebuilt_from_primary(
                    db, "t", spec
                )
        db.close()
