"""What one single-row write costs the simulator, counted.

The cluster is the 8-partition *fits* shape (4 nodes x 2 partitions, no
splits): a single-row upsert lands on one partition, so it is priced once and
takes no stats snapshot and no per-partition node lookup.  Every partition
still runs its maintenance pass after the row's batch and once more at the end
of the feed; ROADMAP item 2(b)'s dirty rule is the change that will skip the
passes of partitions with nothing to do.
"""

from collections import Counter

import pytest

import repro.hashing.extendible as extendible_module
from repro.api import ClusterConfig, Database
from repro.cluster.controller import SimulatedCluster
from repro.cluster.cost_model import CostModel
from repro.cluster.partition import StoragePartition
from repro.lsm.stats import StorageStats

PARTITIONS = 8


@pytest.fixture
def calls(monkeypatch):
    """Calls of every method below, counted by name."""
    counted = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for owner, name in (
        (StoragePartition, "stats_snapshot"),
        (StoragePartition, "maintain"),
        (SimulatedCluster, "node_of_partition"),
        (CostModel, "ingest_work"),
        (StorageStats, "snapshot"),
        (StorageStats, "diff"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(extendible_module, "sorted", counting("sorted", sorted), raising=False)
    return counted


def open_fits():
    db = Database(ClusterConfig(num_nodes=4, partitions_per_node=2), strategy="dynahash")
    dataset = db.create_dataset("t", primary_key="k")
    dataset.insert([{"k": key, "v": "x" * 64} for key in range(2000)])
    assert len(db.cluster.dataset("t").partitions) == PARTITIONS
    return db, dataset


class TestSingleRowUpsert:
    def test_one_upsert(self, calls):
        db, dataset = open_fits()
        calls.clear()
        dataset.upsert([{"k": 7, "v": "y" * 64}], batch_size=1)
        # 16 passes: one per partition after the row's batch and one per
        # partition at the end of the feed (item 2(b) will lower this).
        # The idle passes build no stats objects and re-sort no directory.
        assert calls == {"maintain": 2 * PARTITIONS, "ingest_work": 1}
        db.close()

    def test_the_drivers_batched_upserts(self, calls):
        db, dataset = open_fits()
        rows = [{"k": key, "v": "z" * 64} for key in range(100, 140)]
        calls.clear()
        reports = dataset.upsert_each(rows)
        assert [report.records for report in reports] == [1] * len(rows)
        assert calls == {"maintain": 2 * PARTITIONS * len(rows), "ingest_work": len(rows)}
        db.close()

    def test_a_row_is_priced_like_before(self):
        # One row, no storage work: its partition's parse time plus the
        # node's network time and the feed's two RPCs.
        db, dataset = open_fits()
        cost = db.cluster.cost
        report = dataset.upsert([{"k": 7, "v": "y" * 64}], batch_size=1)
        expected = (
            cost.ingest_work(1, StorageStats()).total_sec
            + cost.network_time(report.bytes_ingested)
            + cost.rpc_time(2)
        )
        assert report.simulated_seconds == expected
        assert (report.splits, report.flush_bytes, report.merge_bytes) == (0, 0, 0)
        assert sorted(report.per_node_seconds) == ["nc0", "nc1", "nc2", "nc3"]
        db.close()
