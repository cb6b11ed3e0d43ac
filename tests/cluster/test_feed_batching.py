"""Tests for the grouped feed-ingest pipeline (PR 4).

``DataFeed.ingest`` now routes rows in arrival order but lands each batch
grouped by target partition through ``StoragePartition.insert_many``.  The
grouping is an implementation detail: reports, storage state, and cost
accounting must match the retired row-at-a-time loop exactly.
"""

from repro.api import ClusterConfig, Database
from repro.cluster.partition import StoragePartition
from repro.cluster.dataset import DatasetSpec
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import ROOT_BUCKET


def open_db(**overrides):
    return Database(
        ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash", **overrides)
    )


def rows_for(count):
    return [{"k": index, "payload": f"{index:08d}" + "y" * 40} for index in range(count)]


class TestInsertManyEquivalence:
    def _fresh_partition(self):
        spec = DatasetSpec(name="t", primary_key=("k",))
        return StoragePartition(spec, partition_id=0, node_id="nc0", initial_buckets=[ROOT_BUCKET])

    def test_insert_many_equals_one_row_runs(self):
        data = rows_for(200)
        looped = self._fresh_partition()
        for row in data:
            looped.insert_many([(row["k"], hash_key(row["k"]), row)])
        batched = self._fresh_partition()
        batched.insert_many((row["k"], hash_key(row["k"]), row) for row in data)
        assert batched.record_count() == looped.record_count()
        assert batched.size_bytes == looped.size_bytes
        assert batched.stats_snapshot() == looped.stats_snapshot()
        assert batched.lookup(1) == {"k": 1, "payload": rows_for(2)[1]["payload"]}


class TestGroupedIngest:
    def test_grouped_ingest_report_fields(self):
        db = open_db()
        db.create_dataset("t", primary_key="k")
        report = db.cluster.feed("t", batch_size=64).ingest(rows_for(500))
        assert report.records == 500
        assert sum(report.per_partition_records.values()) == 500
        assert report.bytes_ingested > 0
        assert report.simulated_seconds > 0
        # Every row is durably routed: the cluster can read them all back.
        dataset = db.dataset("t")
        assert dataset.count() == 500
        assert dataset.get(499)["k"] == 499
        db.close()

    def test_batch_boundaries_preserved_against_reference(self):
        """Two ingests of the same rows with different batch sizes differ in
        maintenance cadence — but the same batch size is deterministic."""
        reports = []
        for _ in range(2):
            db = open_db()
            db.create_dataset("t", primary_key="k")
            reports.append(db.cluster.feed("t", batch_size=128).ingest(rows_for(800)))
            db.close()
        first, second = reports
        assert first.simulated_seconds == second.simulated_seconds
        assert first.per_partition_records == second.per_partition_records
        assert first.flush_bytes == second.flush_bytes
        assert first.splits == second.splits

    def test_maintain_false_still_lands_all_rows(self):
        db = open_db()
        db.create_dataset("t", primary_key="k")
        feed = db.cluster.feed("t", batch_size=32)
        feed.ingest(rows_for(100), maintain=False)
        assert db.dataset("t").count() == 100
        db.close()

    def test_ingest_start_skipped_without_subscribers(self):
        """The registry subscribes to ingest.complete only; ingest.start is
        emitted solely when someone listens."""
        db = open_db()
        db.create_dataset("t", primary_key="k")
        starts = []
        subscription = db.on("ingest.start", starts.append)
        db.cluster.feed("t", batch_size=32).ingest(rows_for(10))
        subscription.cancel()
        db.cluster.feed("t", batch_size=32).ingest(rows_for(10))
        assert len(starts) == 1
        db.close()
