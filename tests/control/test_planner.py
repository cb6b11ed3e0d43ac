"""What-if planner tests: projections vs. the real rebalance machinery."""

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.control import ClusterObservation, WhatIfPlanner


def config(num_nodes=3, strategy="dynahash"):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        strategy=strategy,
    )


def rows(count, start=0):
    return [{"k": key, "payload": "x" * 64} for key in range(start, start + count)]


@pytest.fixture
def loaded_db():
    with Database(config()) as db:
        db.create_dataset("t", primary_key="k").insert(rows(600))
        yield db


class TestProjections:
    def test_invalid_target_is_infeasible(self, loaded_db):
        projection = WhatIfPlanner(loaded_db).project(0)
        assert not projection.feasible
        assert "one node" in projection.reason

    def test_add_node_projects_movement_and_better_balance(self, loaded_db):
        observation = ClusterObservation.capture(loaded_db)
        projection = WhatIfPlanner(loaded_db).project(4)
        assert projection.feasible
        assert projection.buckets_moved > 0
        assert projection.bytes_moved > 0
        assert projection.records_moved > 0
        assert projection.estimated_seconds > 0
        assert projection.projected_balance_ratio < observation.node_balance_ratio
        assert len(projection.projected_storage_per_node) == 4

    def test_remove_node_moves_displaced_buckets(self, loaded_db):
        projection = WhatIfPlanner(loaded_db).project(2)
        assert projection.feasible
        assert projection.buckets_moved > 0
        # Everything on the removed node has to go somewhere.
        removed_bytes = loaded_db.storage_per_node()["nc2"]
        assert projection.bytes_moved >= removed_bytes * 0.5

    def test_projection_does_not_mutate_the_cluster(self, loaded_db):
        before = ClusterObservation.capture(loaded_db), loaded_db.storage_per_node()
        planner = WhatIfPlanner(loaded_db)
        planner.candidates([2, 3, 4, 5])
        after = ClusterObservation.capture(loaded_db), loaded_db.storage_per_node()
        assert before == after
        assert loaded_db.num_nodes == 3

    def test_projection_is_deterministic(self, loaded_db):
        planner = WhatIfPlanner(loaded_db)
        assert planner.project(4) == planner.project(4)

    def test_candidates_deduplicate_and_sort(self, loaded_db):
        projections = WhatIfPlanner(loaded_db).candidates([4, 2, 4, 2])
        assert [p.target_nodes for p in projections] == [2, 4]

    def test_projected_direction_matches_real_rebalance(self):
        """The projection's balance forecast points the same way the real
        rebalance lands: adding a node reduces the per-node peak."""
        with Database(config()) as db:
            db.create_dataset("t", primary_key="k").insert(rows(600))
            projection = WhatIfPlanner(db).project(4)
            before_peak = ClusterObservation.capture(db).max_node_bytes
            db.rebalance(target_nodes=4)
            after = ClusterObservation.capture(db)
            assert after.max_node_bytes < before_peak
            # Forecast and outcome agree on the direction of the change.
            assert projection.projected_max_node_bytes < before_peak

    def test_modulo_routing_projects_a_full_rewrite(self):
        with Database(config(strategy="hashing")) as db:
            dataset = db.create_dataset("t", primary_key="k")
            dataset.insert(rows(400))
            observation = ClusterObservation.capture(db)
            projection = WhatIfPlanner(db).project(4)
            assert projection.feasible
            # The Hashing baseline rebuilds the dataset: (nearly) all bytes move.
            assert projection.bytes_moved == observation.total_bytes
            assert projection.records_moved == dataset.count()

    def test_empty_cluster_projection(self):
        with Database(config()) as db:
            projection = WhatIfPlanner(db).project(4)
            assert projection.feasible
            assert projection.buckets_moved == 0
            assert projection.projected_balance_ratio == 1.0
