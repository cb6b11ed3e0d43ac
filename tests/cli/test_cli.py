"""The ``python -m repro`` CLI: subcommands, exit codes, output shape."""

import json

import pytest

from repro.cli import build_parser, main

SPEC_TEXT = """
[scenario]
name = "cli-smoke"

[cluster]
nodes = 3
partitions_per_node = 2
[cluster.lsm]
memory_component_bytes = "32 KiB"

[workload]
initial_records = 60
mix = "A"

[[workload.phases]]
name = "steady"
ops = 40

[checks]
expect_nodes = 3
min_total_ops = 40
"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "cli_smoke.toml"
    path.write_text(SPEC_TEXT)
    return path


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "bench", "inspect", "replay"):
            assert command in text

    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        assert "COMMAND" in capsys.readouterr().out


class TestRun:
    def test_run_passing_spec_exits_zero(self, spec_path, capsys):
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario 'cli-smoke' OK" in out
        assert "check expect_nodes: PASS" in out

    def test_run_quiet_prints_verdict_only(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--quiet"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("scenario 'cli-smoke' OK")

    def test_failing_check_exits_one(self, tmp_path, capsys):
        path = tmp_path / "failing.toml"
        path.write_text(SPEC_TEXT.replace("expect_nodes = 3", "expect_nodes = 5"))
        assert main(["run", str(path), "-q"]) == 1
        assert "check expect_nodes: FAIL" in capsys.readouterr().out

    def test_invalid_spec_exits_two_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("[scenario]\nname = \"x\"\n[cluster]\nnode = 3\n[workload]\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'node'" in err

    @pytest.mark.parametrize(
        "steps, fragment",
        [
            ('[[steps]]\nkind = ["a"]\n', "steps[0].kind: expected str"),
            ('[[steps]]\nkind = "rebalance"\nremove = 10\n', "steps[0]: target_nodes must be at least 1"),
        ],
        ids=["parse-time", "run-time"],
    )
    def test_malformed_steps_exit_two_without_a_traceback(self, tmp_path, capsys, steps, fragment):
        path = tmp_path / "malformed.toml"
        path.write_text(SPEC_TEXT + steps)
        for command in (["run", str(path), "-q"], ["trace", str(path), "-q"], ["sweep", str(path),
                        "--axis", "seed=1", "--out-dir", str(tmp_path / "cells"), "--quiet"]):
            assert main(command) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error:") and fragment in err and "Traceback" not in err

    def test_budgeted_rebalance_phase_exits_two(self, tmp_path, capsys):
        # A rebalance phase runs every op it draws; a max_seconds budget on it
        # used to be dropped silently and the run exited 0.
        path = tmp_path / "budgeted.toml"
        budgeted = "ops = 40\nrebalance = { add = 1 }\nmax_seconds = 0.0001\n"
        path.write_text(SPEC_TEXT.replace("ops = 40\n", budgeted))
        assert main(["run", str(path), "-q"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: workload: phase 'steady': max_seconds cannot")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_spec_carrying_the_removed_engine_key_exits_two(self, tmp_path, capsys):
        # Every rebalance runs on the event scheduler; there is no engine to pick.
        path = tmp_path / "engine.toml"
        path.write_text(
            SPEC_TEXT.replace('name = "cli-smoke"', 'name = "cli-smoke"\nconcurrency = "legacy"')
        )
        assert main(["run", str(path), "-q"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: scenario: unknown key(s) ['concurrency']")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_removed_engine_flag_exits_two(self, spec_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["run", str(spec_path), "--concurrency", "interleaved"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --concurrency" in err and "Traceback" not in err

    def test_missing_spec_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.toml")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_seed_override_changes_report(self, spec_path, capsys):
        assert main(["run", str(spec_path), "--seed", "7"]) == 0
        assert "seed=7" in capsys.readouterr().out


class TestRecordReplayInspect:
    def test_record_then_replay_zero_diff(self, spec_path, tmp_path, capsys):
        recording = tmp_path / "run.json"
        assert main(["run", str(spec_path), "-q", "--record", str(recording)]) == 0
        assert recording.exists()
        assert main(["replay", str(recording)]) == 0
        assert "replay OK: snapshot identical" in capsys.readouterr().out

    def test_replay_detects_divergence(self, spec_path, tmp_path, capsys):
        recording = tmp_path / "run.json"
        main(["run", str(spec_path), "-q", "--record", str(recording)])
        document = json.loads(recording.read_text())
        document["snapshot"]["counters"]["ops.total"] += 1
        recording.write_text(json.dumps(document))
        assert main(["replay", str(recording)]) == 1
        out = capsys.readouterr().out
        assert "replay DIVERGED" in out and "counters[ops.total]" in out

    def test_replay_of_a_spec_that_cannot_run_exits_two(self, spec_path, tmp_path, capsys):
        recording = tmp_path / "run.json"
        main(["run", str(spec_path), "-q", "--record", str(recording)])
        document = json.loads(recording.read_text())
        document["scenario"]["steps"] = [{"kind": "rebalance", "remove": 10}]
        recording.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["replay", str(recording)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps[0]: target_nodes") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["replay", "inspect"])
    def test_version_1_recording_exits_two_naming_the_path(
        self, spec_path, tmp_path, capsys, command
    ):
        # Version 1 predates per-bucket pricing everywhere and still carries
        # the engine key: it can neither replay nor be trusted by inspect.
        recording = tmp_path / "v1.json"
        main(["run", str(spec_path), "-q", "--record", str(recording)])
        document = json.loads(recording.read_text())
        document["version"] = 1
        document["scenario"]["scenario"]["concurrency"] = "legacy"
        recording.write_text(json.dumps(document))
        capsys.readouterr()
        assert main([command, str(recording)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {recording}: unsupported recording version 1")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_inspect_prints_cluster_and_histograms(self, spec_path, tmp_path, capsys):
        recording = tmp_path / "run.json"
        main(["run", str(spec_path), "-q", "--record", str(recording)])
        assert main(["inspect", str(recording)]) == 0
        out = capsys.readouterr().out
        assert "recording of scenario 'cli-smoke'" in out
        assert "traffic" in out  # the dataset table
        assert "latency histograms (ms):" in out
        assert "ops.total" in out

    def test_inspect_rejects_non_recordings(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["inspect", str(path)]) == 2
        assert "not a scenario recording" in capsys.readouterr().err


class TestBench:
    def test_bench_dry_run_lists_every_micro_benchmark(self, capsys):
        from repro.bench.micro import BENCHMARKS

        assert main(["bench", "--dry-run"]) == 0
        out = capsys.readouterr().out
        for name in BENCHMARKS:
            assert f"micro:{name}" in out
        assert f"(dry run: {len(BENCHMARKS)} benchmarks selected)" in out

    def test_bench_forwards_argv_unchanged(self, monkeypatch):
        from repro.bench import micro

        seen = []
        monkeypatch.setattr(micro, "main", lambda argv: seen.append(argv) or 7)
        argv = ["--repeats", "1", "--check", "b.json", "--tolerance=0.5", "-h"]
        assert main(["bench", *argv]) == 7
        assert seen == [argv]

    def test_bench_write_baseline_forwards_to_micro(self, tmp_path, monkeypatch, capsys):
        from repro.bench import micro

        payload = {
            "name": "micro",
            "repeats": 1,
            "calibration_score": 100.0,
            "ops_per_second": {name: 100.0 for name in micro.BENCHMARKS},
            "normalized": {name: 1.0 for name in micro.BENCHMARKS},
        }
        monkeypatch.setattr(micro, "run_micro_suite", lambda repeats: payload)
        target = tmp_path / "BENCH_micro.json"
        assert main(["bench", "--write-baseline", str(target)]) == 0
        assert json.loads(target.read_text()) == payload
        assert f"baseline written: {target}" in capsys.readouterr().out
