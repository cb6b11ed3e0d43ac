"""Golden-snapshot pins for the PR-4 hot-path overhaul.

The fixtures under ``fixtures/`` were generated by the **pre-overhaul**
code (row-at-a-time feed, per-op driver loop, fnmatch event routing, bisect
histograms).  The overhauled pipeline must reproduce them bit for bit: the
optimisations are allowed to change how fast the simulator runs, never what
it computes.
"""

import json
from pathlib import Path

import pytest

from repro.api import ClusterConfig, Database, WorkloadDriver, WorkloadSpec
from repro.metrics import MetricsSnapshot

FIXTURES = Path(__file__).parent / "fixtures"


class TestDriverGolden:
    @pytest.mark.parametrize("mix", ["A", "B", "E"])
    def test_driver_snapshot_matches_pre_overhaul_pipeline(self, mix):
        golden = json.loads((FIXTURES / "driver_snapshots_golden.json").read_text())
        db = Database(
            ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash")
        )
        spec = WorkloadSpec(dataset="t", initial_records=500, mix=mix, default_ops=600)
        report = WorkloadDriver(db, spec).run()
        assert json.loads(report.snapshot.to_json()) == golden[mix]
        db.close()


class TestTrafficExperimentGolden:
    def test_traffic_experiment_snapshot_matches_pre_overhaul(self):
        from repro.scenario import load_scenario, run_scenario

        golden_text = (FIXTURES / "traffic_snapshot_golden.json").read_text()
        result = run_scenario(load_scenario(FIXTURES / "traffic_smoke.toml"))
        assert result.snapshot == MetricsSnapshot.from_json(golden_text)
