"""Smoke test of the end-to-end benchmark suite (1/20-size inputs, one round).

Runs ``run.py --scale smoke --repeats 1`` exactly as a user would — all six
workloads, untraced run plus traced pass each — and holds the output to the
contract in ``BENCHMARK.json``: same workload and metric names, oracles
passing, the layers' self times summing to the traced root span.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def test_e2e_suite_smoke(tmp_path):
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--repeats", "1"]
        + ["--out", str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads((tmp_path / "BENCH_e2e.json").read_text())

    assert sorted(document["workloads"]) == sorted(w["name"] for w in contract["workloads"])
    end_to_end = {metric["name"] for metric in contract["end_to_end"]}
    per_layer = {metric["name"] for metric in contract["per_layer"]}
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
        assert entry["correct"] and entry["fail_share"] == 0, name
        assert all(reading["value"] > 0 for reading in entry["end_to_end"].values()), name
        # Every ``*self_s`` metric is one layer's share of the root span.
        layers = {key: reading["value"] for key, reading in entry["per_layer"].items()}
        self_total = sum(value for key, value in layers.items() if key.endswith("self_s"))
        assert self_total == pytest.approx(layers["workload.root_s"], rel=1e-6), name
        assert (tmp_path / f"trace_{name}.json").exists()
        # Every printed metric line carries its unit.
        assert f"{name:<14} wall_s" in done.stdout


def test_e2e_suite_rejects_unknown_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ycsb_z"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert "ycsb_c_fits" in done.stdout


def test_e2e_suite_lints_clean():
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "benchmarks/e2e"],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
