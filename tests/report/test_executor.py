"""The sweep executor: parallel/serial byte parity and manifest stability.

The central guarantee of `python -m repro sweep --jobs N`: a recording's
bytes are a pure function of its cell's spec, so fanning cells out across
worker processes changes wall time and nothing else.
"""

import json

import pytest

from repro.report import run_sweep, sweep_manifest_json
from repro.report.executor import MANIFEST_NAME
from repro.scenario.recording import RECORDING_VERSION


@pytest.fixture(scope="module")
def parallel(tmp_path_factory, base_spec, axes):
    """The same grid as the session's serial sweep, run with two workers."""
    out = tmp_path_factory.mktemp("sweep-parallel")
    events = []
    manifest = run_sweep(
        base_spec,
        axes,
        out,
        jobs=2,
        progress=lambda cell, passed: events.append((cell.cell_id, passed)),
    )
    return out, manifest, events


class TestJobsParity:
    def test_parallel_and_serial_sweeps_are_byte_identical(self, sweep_dir, parallel):
        parallel_dir, _, _ = parallel
        serial_files = sorted(p.name for p in sweep_dir.iterdir())
        parallel_files = sorted(p.name for p in parallel_dir.iterdir())
        assert serial_files == parallel_files
        assert len(serial_files) == 3  # two recordings + the manifest
        for name in serial_files:
            assert (sweep_dir / name).read_bytes() == (parallel_dir / name).read_bytes()

    def test_manifest_is_byte_stable(self, sweep_dir, parallel):
        _, manifest, _ = parallel
        assert sweep_manifest_json(manifest) == (sweep_dir / MANIFEST_NAME).read_text()


class TestManifest:
    def test_structure(self, sweep_dir, parallel):
        _, manifest, _ = parallel
        assert manifest["version"] == 1
        assert manifest["kind"] == "sweep"
        assert manifest["scenario"] == "report-smoke"
        assert manifest["axes"] == [
            {"axis": "strategy", "values": ["dynahash", "statichash"]}
        ]
        assert [cell["id"] for cell in manifest["cells"]] == [
            "strategy=dynahash",
            "strategy=statichash",
        ]
        for cell in manifest["cells"]:
            assert (sweep_dir / cell["recording"]).exists()
            assert cell["passed"] is True
            assert cell["metrics"]["total_ops"] == 80.0
            assert cell["metrics"]["ops_per_sec"] > 0

    def test_recordings_parse_and_carry_traces(self, sweep_dir, parallel):
        _, manifest, _ = parallel
        for cell in manifest["cells"]:
            document = json.loads((sweep_dir / cell["recording"]).read_text())
            assert document["version"] == RECORDING_VERSION
            assert document["trace"]["series"]
            assert document["rebalances"]["count"] == 1

    def test_progress_fires_once_per_cell_in_grid_order(self, parallel):
        _, manifest, events = parallel
        assert events == [(cell["id"], True) for cell in manifest["cells"]]
