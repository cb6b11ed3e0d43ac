"""An ingest is priced from the work its maintenance passes report.

``DataFeed.ingest`` takes no stats snapshot: each partition's flushes, merges
and splits are summed from the ``MaintenanceReport``s its passes return, and
that sum is what the cost model prices.  The oracle is the snapshot pair the
feed no longer takes.  ``stats_snapshot()`` keeps the counters of the buckets
a split retires, so its diff around an ingest is the work the ingest did.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig, SecondaryIndexSpec
from repro.bucketed.bucketed_lsm import BucketedLSMTree

#: The counters an ingest's price is made of, as ``StorageStats`` names them.
PRICED = ("bytes_flushed", "bytes_merged_read", "bytes_merged_written", "records_merged")


def open_split():
    """A small split-config dataset (one secondary index) whose buckets split
    and whose indexes flush and merge within a few hundred rows."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=4 * KIB),
            bucketing=BucketingConfig(max_bucket_bytes=8 * KIB),
        )
    )
    dataset = db.create_dataset(
        "t", primary_key="k", secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))]
    )
    return db, dataset


def row(key):
    return {"k": key, "c": key % 7, "v": "x" * 64}


def checked_ingest(db, rows, batch_size):
    """Ingest ``rows`` and check what the feed priced against the stats diff.

    Returns the ingest report and the splits the ingest made.
    """
    cost = db.cluster.cost
    partitions = db.cluster.dataset("t").partitions
    priced = []
    ingest_work = cost.ingest_work

    def recording(records, stats):
        priced.append((records, *(getattr(stats, name) for name in PRICED)))
        return ingest_work(records, stats)

    before = {pid: p.stats_snapshot() for pid, p in partitions.items()}
    splits_before = {pid: p.primary.split_count for pid, p in partitions.items()}
    cost.ingest_work = recording
    try:
        report = db.cluster.feed("t", batch_size=batch_size).ingest(rows)
    finally:
        del cost.ingest_work
    expected = []
    splits = flushed = merged = 0
    for pid, partition in partitions.items():
        delta = partition.stats_snapshot().diff(before[pid])
        work = tuple(getattr(delta, name) for name in PRICED)
        assert min(work) >= 0, (pid, work)
        split = partition.primary.split_count - splits_before[pid]
        records = report.per_partition_records[pid]
        # The feed prices partitions in partition order and skips the ones
        # that took no row and whose passes did nothing.
        if records or any(work) or split:
            expected.append((records, *work))
        splits += split
        flushed += delta.bytes_flushed
        merged += delta.bytes_merged_written
    assert priced == expected
    assert (report.splits, report.flush_bytes, report.merge_bytes) == (splits, flushed, merged)
    assert min(report.bytes_ingested, report.flush_bytes, report.merge_bytes) >= 0
    assert report.simulated_seconds >= 0
    return report, splits


class TestFeedPricesReportedWork:
    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                # A run of keys (runs overlap, so some rows are upserts).
                st.tuples(
                    st.just("ingest"),
                    st.integers(0, 600),
                    st.integers(0, 400),
                    st.integers(1, 80),
                ),
                st.tuples(
                    st.just("delete"), st.lists(st.integers(0, 1000), max_size=12), st.none()
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_priced_work_equals_the_monotone_stats_diff(self, steps):
        db, dataset = open_split()
        for action, *args in steps:
            if action == "ingest":
                start, count, batch_size = args
                checked_ingest(db, [row(key) for key in range(start, start + count)], batch_size)
            else:
                dataset.delete(args[0])
        db.close()

    def test_a_split_prices_its_two_flushes(self, monkeypatch):
        # Small batches: buckets reach their cap while their memory
        # components still hold rows, so the splits' own flushes carry bytes.
        split_flushes = []
        split = BucketedLSMTree.split

        def recording(tree, bucket_id):
            result = split(tree, bucket_id)
            split_flushes.append(result.async_flush_bytes + result.sync_flush_bytes)
            return result

        monkeypatch.setattr(BucketedLSMTree, "split", recording)
        db, _ = open_split()
        _, splits = checked_ingest(db, [row(key) for key in range(600)], 20)
        assert splits == len(split_flushes) > 0
        assert all(split_flushes)
        db.close()

    def test_an_unmaintained_ingest_prices_rows_only(self):
        db, _ = open_split()
        report = db.cluster.feed("t").ingest([row(key) for key in range(50)], maintain=False)
        assert (report.splits, report.flush_bytes, report.merge_bytes) == (0, 0, 0)
        assert report.simulated_seconds > 0
        db.close()
