"""The feed lands each batch as columns, and the result is the row loop's.

``DataFeed.ingest`` takes ``batch_size`` rows at a time, extracts their keys,
hashes and routes them a column pass each, and lands each partition's slice
of the batch through one column-shaped ``StoragePartition.insert_many``.  The
oracle below is the row-at-a-time loop that path replaced: each row keyed,
hashed, routed through the feed's snapshot and landed alone, a sweep of the
unsettled partitions after every ``batch_size`` rows and once more at the
end, then the same cost roll-up.  Every tree's entries, sequence numbers and
hash columns, the ``StorageStats``, the number of passes, the heat hook's
calls and the ``IngestReport`` must be the loop's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterConfig, Database
from repro.cluster.dataset import DatasetSpec, SecondaryIndexSpec
from repro.cluster.partition import StoragePartition
from repro.cluster.reports import IngestReport
from repro.common.config import BucketingConfig, LSMConfig
from repro.common.errors import StorageError
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import ROOT_BUCKET
from repro.lsm.stats import StorageStats

from .test_batch_landing import land_row_at_a_time, state


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
            looped.insert_many([row["k"]], [hash_key(row["k"])], [row])
        batched = self._fresh_partition()
        keys = [row["k"] for row in data]
        batched.insert_many(keys, list(map(hash_key, keys)), data)
        assert batched.record_count() == looped.record_count()
        assert batched.size_bytes == looped.size_bytes
        assert batched.stats_snapshot() == looped.stats_snapshot()
        assert batched.lookup(1) == {"k": 1, "payload": rows_for(2)[1]["payload"]}


def ingest_row_at_a_time(feed, rows):
    """The oracle: the row loop, its sweeps and its roll-up."""
    cluster, runtime = feed.cluster, feed.runtime
    cost, partitions = cluster.cost, runtime.partitions
    work = {}
    records = {pid: 0 for pid in partitions}
    landed_bytes = {pid: 0 for pid in partitions}
    settled = set()

    def sweep():
        for pid, partition in partitions.items():
            if pid in settled:
                continue
            report = partition.maintain()
            if report.idle:
                settled.add(pid)
            elif pid in work:
                report.merge_into(work[pid])
            else:
                work[pid] = report

    for count, row in enumerate(rows, start=1):
        key = runtime.spec.primary_key_of(row)
        hashed = hash_key(key)
        pid = feed.routing.directory.lookup_hash(hashed)[1]
        cluster.heat.record_write(feed.dataset_name, hashed)
        _, (size,) = land_row_at_a_time(partitions[pid], [(key, hashed, row)])
        records[pid] += 1
        landed_bytes[pid] += size
        settled.discard(pid)
        if count % feed.batch_size == 0:
            sweep()
    sweep()

    seconds = {}
    for pid, landed in records.items():
        if pid in work:
            seconds[pid] = cost.ingest_work(landed, work[pid].storage_stats()).total_sec
        else:
            seconds[pid] = cost.ingest_work(landed, StorageStats()).total_sec if landed else 0.0
    per_node = {}
    for index, node in enumerate(cluster.nodes):
        pids = [pid for pid in partitions if pid // cluster.partitions_per_node == index]
        if pids:
            per_node[node.node_id] = max(seconds[pid] for pid in pids) + cost.network_time(
                sum(landed_bytes[pid] for pid in pids)
            )
    return IngestReport(
        dataset=feed.dataset_name,
        records=sum(records.values()),
        bytes_ingested=sum(landed_bytes.values()),
        simulated_seconds=cost.slowest(per_node) + cost.rpc_time(2),
        per_node_seconds=per_node,
        per_partition_records=records,
        splits=sum(len(done.splits) for done in work.values()),
        flush_bytes=sum(done.flush_bytes for done in work.values()),
        merge_bytes=sum(done.merge_write_bytes for done in work.values()),
    )


def open_tiny(composite, secondary):
    """Two nodes x two partitions small enough to flush, merge and split,
    with the heat hook on; returns the database and its pass and heat logs."""
    db = Database(
        ClusterConfig(
            num_nodes=2,
            partitions_per_node=2,
            strategy="dynahash",
            lsm=LSMConfig(memory_component_bytes=1024),
            bucketing=BucketingConfig(max_bucket_bytes=2048),
        )
    )
    db.create_dataset(
        "t",
        primary_key=("k", "j") if composite else "k",
        secondary_indexes=[SecondaryIndexSpec("by_c", ("c",))] if secondary else (),
    )
    db.start_trace()
    passes, heated = [], []
    record_write = db.cluster.heat.record_write

    def recording(name, hashed):
        heated.append(hashed)
        record_write(name, hashed)

    db.cluster.heat.record_write = recording
    for partition in db.cluster.dataset("t").partitions.values():
        maintain = partition.maintain

        def counted(force_flush=False, maintain=maintain, pid=partition.partition_id):
            passes.append(pid)
            return maintain(force_flush)

        partition.maintain = counted
    return db, passes, heated


def storage(db):
    return {pid: state(p) for pid, p in db.cluster.dataset("t").partitions.items()}


#: Rows of one call: key (repeats inside a call are upserts), secondary
#: value and payload width.
calls = st.lists(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 3), st.integers(0, 200)),
        min_size=0,
        max_size=60,
    ),
    min_size=1,
    max_size=3,
)


class TestColumnFeedIsTheRowLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        calls=calls,
        batching=st.sampled_from(["one", "three", "divisor", "over"]),
        generator=st.booleans(),
        composite=st.booleans(),
        secondary=st.booleans(),
        data=st.data(),
    )
    def test_ingest_lands_and_prices_as_the_row_loop(
        self, calls, batching, generator, composite, secondary, data
    ):
        fed, fed_passes, fed_heat = open_tiny(composite, secondary)
        looped, looped_passes, looped_heat = open_tiny(composite, secondary)
        for call in calls:
            rows = [{"k": k, "j": k % 2, "c": c, "v": "x" * width} for k, c, width in call]
            if batching == "one":
                batch_size = 1
            elif batching == "three":
                batch_size = 3
            elif batching == "divisor" and rows:
                divisors = [d for d in range(1, len(rows) + 1) if len(rows) % d == 0]
                batch_size = data.draw(st.sampled_from(divisors))
            else:
                batch_size = len(rows) + 5
            feed = fed.cluster.feed("t", batch_size=batch_size)
            report = feed.ingest(iter(list(rows)) if generator else rows)
            expected = ingest_row_at_a_time(looped.cluster.feed("t", batch_size=batch_size), rows)
            assert report == expected
            assert storage(fed) == storage(looped)
            assert fed_passes == looped_passes
            assert fed_heat == looped_heat
        assert len(fed_heat) == sum(len(call) for call in calls)
        fed.close()
        looped.close()

    def test_a_generator_is_pulled_one_batch_ahead(self):
        db = open_db()
        db.create_dataset("t", primary_key="k")
        pulled = []

        def rows():
            for row in rows_for(10):
                pulled.append(row["k"])
                yield row

        landed = []
        for partition in db.cluster.dataset("t").partitions.values():
            maintain = partition.maintain

            def counted(force_flush=False, maintain=maintain):
                landed.append(len(pulled))
                return maintain(force_flush)

            partition.maintain = counted
        db.cluster.feed("t", batch_size=4).ingest(rows())
        # Every pass sees the rows of the batches before it and no more.
        assert sorted(set(landed)) == [4, 8, 10]
        db.close()


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


class TestBlockedBatch:
    def test_a_batch_reaching_a_blocked_partition_lands_nothing(self):
        # Every partition a batch touches is checked for a block before any
        # slice lands: a refused batch writes no row, credits no heat and
        # counts nothing as ingested.
        db = Database(ClusterConfig(num_nodes=4, partitions_per_node=2, strategy="dynahash"))
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert([{"k": key, "v": key} for key in range(200)])
        runtime = db.cluster.dataset("t")
        blocked = runtime.partitions[runtime.partition_of_key(1099)]
        rows = [{"k": key, "v": key} for key in range(1000, 1100)]
        # The batch reaches the blocked partition after others it lands in.
        reached = [runtime.partition_of_key(row["k"]) for row in rows]
        assert reached.index(blocked.partition_id) > 0
        db.start_trace()
        blocked.block()
        before = storage(db)
        with pytest.raises(StorageError, match="blocked"):
            dataset.insert(rows)
        blocked.unblock()
        assert storage(db) == before
        assert not db.cluster.heat.write_heat()
        assert runtime.records_ingested == 200
        assert dataset.count() == 200
        db.close()

    def test_batches_landed_before_a_refused_one_stay_uncounted(self):
        # The block check is per batch, not per call: an insert refused at a
        # later batch keeps the batches that landed before it, with their
        # heat, and counts none of them (records_ingested, the IngestReport
        # and op.insert come at the end of the call).  This pins that
        # behaviour until a refused call is made to land nothing.
        db = Database(ClusterConfig(num_nodes=4, partitions_per_node=2, strategy="dynahash"))
        dataset = db.create_dataset("t", primary_key="k")
        dataset.insert([{"k": key, "v": key} for key in range(200)])
        runtime = db.cluster.dataset("t")
        blocked = runtime.partitions[runtime.partition_of_key(1099)]
        # Rows for the blocked partition come last, so the batches before the
        # first of them land.
        keys = sorted(
            range(1000, 1100), key=lambda key: runtime.partition_of_key(key) == blocked.partition_id
        )
        first_blocked = [runtime.partition_of_key(key) for key in keys].index(blocked.partition_id)
        landed = first_blocked // 8 * 8
        assert landed > 0
        db.start_trace()
        blocked.block()
        with pytest.raises(StorageError, match="blocked"):
            dataset.insert([{"k": key, "v": key} for key in keys], batch_size=8)
        blocked.unblock()
        assert dataset.count() == 200 + landed
        assert runtime.records_ingested == 200
        assert sum(writes for _, _, writes in db.cluster.heat.write_heat()) == landed
        db.close()
