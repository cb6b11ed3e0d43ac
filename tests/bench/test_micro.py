"""Tests for the microbenchmark harness and its perf gate (PR 4)."""

import json

import pytest

from repro.bench.micro import (
    BENCHMARKS,
    bench_calibration,
    bench_event_emit,
    bench_histogram_record,
    bench_histogram_record_many,
    compare_to_baseline,
    format_suite,
    main,
)


def tiny_payload(scale=1.0):
    return {
        "name": "micro",
        "repeats": 1,
        "calibration_score": 100.0,
        "ops_per_second": {name: 100.0 * scale for name in BENCHMARKS},
        "normalized": {name: 1.0 * scale for name in BENCHMARKS},
    }


class TestBenchmarks:
    def test_each_micro_benchmark_reports_positive_throughput(self):
        assert bench_calibration(loops=20_000) > 0
        assert bench_event_emit(emits=5_000) > 0
        assert bench_histogram_record(samples=20_000) > 0
        assert bench_histogram_record_many(samples=20_000) > 0

    def test_registry_covers_the_issue_surface(self):
        # event emit, histogram record, driver ops/sec, feed ingest.
        assert {"event_emit", "histogram_record", "driver_ops", "feed_ingest"} <= set(
            BENCHMARKS
        )


class TestPerfGate:
    def test_gate_passes_on_identical_numbers(self):
        assert compare_to_baseline(tiny_payload(), tiny_payload()) == []

    def test_gate_passes_within_tolerance(self):
        assert compare_to_baseline(tiny_payload(0.80), tiny_payload(), tolerance=0.25) == []

    def test_gate_fails_past_tolerance(self):
        failures = compare_to_baseline(tiny_payload(0.5), tiny_payload(), tolerance=0.25)
        assert len(failures) == len(BENCHMARKS)
        assert "below baseline" in failures[0]

    def test_gate_ignores_benchmarks_missing_from_baseline(self):
        baseline = tiny_payload()
        baseline["normalized"] = {"event_emit": 1.0}
        current = tiny_payload(0.9)
        assert compare_to_baseline(current, baseline) == []

    def test_gate_ignores_benchmarks_missing_from_current(self):
        current = tiny_payload()
        current["normalized"] = {}
        assert compare_to_baseline(current, tiny_payload()) == []

    def test_faster_numbers_never_fail(self):
        assert compare_to_baseline(tiny_payload(3.0), tiny_payload()) == []

    def test_format_suite_lists_every_benchmark(self):
        table = format_suite(tiny_payload())
        for name in BENCHMARKS:
            assert name in table


class TestCli:
    def test_main_writes_baseline(self, tmp_path, capsys):
        baseline_path = tmp_path / "BENCH_micro.json"
        # One repeat keeps the CLI smoke test fast; the benchmarks themselves
        # run at their default sizes (a few seconds total).
        status = main(["--repeats", "1", "--write-baseline", str(baseline_path)])
        assert status == 0
        baseline = json.loads(baseline_path.read_text())
        assert set(baseline["ops_per_second"]) == set(BENCHMARKS)
        assert list(tmp_path.iterdir()) == [baseline_path]
        # And the gate accepts the baseline it just wrote (generous tolerance
        # absorbs run-to-run noise in the same process).
        status = main(
            ["--repeats", "1", "--check", str(baseline_path), "--tolerance", "0.9"]
        )
        assert status == 0

    def test_dry_run_lists_benchmarks_without_running_them(self, monkeypatch, capsys):
        import repro.bench.micro as micro

        def refuse(repeats):
            raise AssertionError("--dry-run ran the suite")

        monkeypatch.setattr(micro, "run_micro_suite", refuse)
        assert main(["--dry-run"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"micro:{name}" for name in BENCHMARKS]

    def test_artifact_dir_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--artifact-dir", "out"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --artifact-dir" in capsys.readouterr().err
