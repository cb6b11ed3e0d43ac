"""The [chaos] scenario section end to end: spec, run, record, replay."""

import pytest

from repro.scenario import (
    ScenarioSpecError,
    diff_chaos,
    diff_snapshots,
    diff_traces,
    parse_scenario,
    recording_payload,
    run_scenario,
)

CHAOS_SPEC = """
[scenario]
name = "storm"

[cluster]
nodes = 3
partitions_per_node = 2
seed = 99
[cluster.lsm]
memory_component_bytes = "32 KiB"

[workload]
initial_records = 150
mix = "A"
keys = "zipfian"

[[workload.phases]]
name = "steady"
ops = 60

[[workload.phases]]
name = "partitioned"
ops = 80
rebalance = { add = 1 }

[trace]
enabled = true

[chaos]
stragglers = [{ node = "nc0", start = 0.0, duration = 10.0, multiplier = 3.0 }]
random_stragglers = 1
partitions = [{ start = 0.0, duration = 20.0, timeout_probability = 0.05 }]
crashes = [{ after_seconds = 0.0, site = "nc_fail_after_prepare" }]
bursts = [{ start = 0.0, duration = 10.0, factor = 1.5 }]

[[steps]]
kind = "rebalance"
remove = 1

[[steps]]
kind = "recover"

[checks]
datasets_unchanged_after_steps = true
recovered_within_seconds = 5.0
max_routing_miss_rate = 0.5
"""


@pytest.fixture(scope="module")
def storm():
    return run_scenario(parse_scenario(CHAOS_SPEC))


class TestChaosSection:
    def test_round_trips_through_canonical_mapping(self):
        spec = parse_scenario(CHAOS_SPEC)
        assert spec.chaos is not None
        rebuilt = type(spec).from_mapping(spec.to_mapping())
        assert rebuilt.chaos == spec.chaos

    def test_section_with_no_faults_is_rejected(self):
        with pytest.raises(ScenarioSpecError, match="declares no faults"):
            parse_scenario(
                CHAOS_SPEC.replace(
                    "[chaos]\n"
                    'stragglers = [{ node = "nc0", start = 0.0, duration = 10.0, multiplier = 3.0 }]\n'
                    "random_stragglers = 1\n"
                    'partitions = [{ start = 0.0, duration = 20.0, timeout_probability = 0.05 }]\n'
                    'crashes = [{ after_seconds = 0.0, site = "nc_fail_after_prepare" }]\n'
                    "bursts = [{ start = 0.0, duration = 10.0, factor = 1.5 }]\n",
                    "[chaos]\n",
                )
            )

    def test_crash_plans_reject_the_global_hashing_baseline(self):
        with pytest.raises(ScenarioSpecError, match="no\\s+interruptible protocol window"):
            parse_scenario(CHAOS_SPEC.replace('seed = 99', 'seed = 99\nstrategy = "hashing"'))

    def test_crash_plans_require_a_recover_step(self):
        headless = CHAOS_SPEC.replace('[[steps]]\nkind = "recover"\n\n', "")
        with pytest.raises(ScenarioSpecError, match="add a recover step"):
            parse_scenario(headless)

    def test_unknown_crash_site_fails_at_parse_time(self):
        with pytest.raises(ScenarioSpecError, match="site"):
            parse_scenario(CHAOS_SPEC.replace("nc_fail_after_prepare", "nc_catches_fire"))

    def test_chaos_crashes_satisfy_the_recover_step_precondition(self):
        """A recover step is legal with [[chaos.crashes]] and no expect_fault."""
        spec = parse_scenario(CHAOS_SPEC)
        assert not any(getattr(step, "expect_fault", False) for step in spec.steps)

    def test_strategy_override_cannot_smuggle_crashes_onto_the_baseline(self):
        """`--strategy hashing` re-validates: crash plans must fail cleanly,
        not detonate mid-run as an uncaught ConfigError."""
        spec = parse_scenario(CHAOS_SPEC)
        with pytest.raises(ScenarioSpecError, match="no\\s+interruptible protocol window"):
            spec.with_overrides([("strategy", "hashing")])


class TestChaosRun:
    def test_crash_fires_and_recovery_is_measured(self, storm):
        assert storm.faulted_site == "nc_fail_after_prepare"
        assert storm.recovery_seconds is not None
        assert storm.recovery_seconds > 0.0

    def test_chaos_events_are_captured_in_declaration_time_order(self, storm):
        names = [event["event"] for event in storm.chaos_events]
        assert "chaos.straggler" in names
        assert "chaos.partition" in names
        assert "chaos.crash" in names
        assert "chaos.burst" in names
        ats = [event["at"] for event in storm.chaos_events]
        assert ats == sorted(ats)

    def test_all_checks_pass(self, storm):
        assert [check.passed for check in storm.checks] == [True, True, True]

    def test_retry_counters_reach_the_snapshot(self, storm):
        counters = dict(storm.snapshot.counters)
        assert counters.get("chaos.crash") == 1
        assert counters.get("retry.backoff", 0) > 0

    def test_recording_embeds_the_chaos_log(self, storm):
        payload = recording_payload(storm)
        assert payload["chaos"]["faulted_site"] == "nc_fail_after_prepare"
        assert payload["chaos"]["events"] == storm.chaos_events
        assert payload["chaos"]["recovery_seconds"] == storm.recovery_seconds


class TestChaosReplay:
    def test_rerun_is_zero_diff_in_snapshot_trace_and_chaos(self, storm):
        replayed = run_scenario(parse_scenario(CHAOS_SPEC))
        assert diff_snapshots(storm.snapshot, replayed.snapshot) == []
        assert diff_traces(storm.trace, replayed.trace) == []
        recorded = recording_payload(storm).get("chaos")
        again = recording_payload(replayed).get("chaos")
        assert diff_chaos(recorded, again) == []

    def test_diff_chaos_names_a_diverged_site(self, storm):
        recorded = recording_payload(storm)["chaos"]
        mutated = dict(recorded, faulted_site="cc_fail_after_commit")
        differences = diff_chaos(recorded, mutated)
        assert differences
        assert any("faulted_site" in line for line in differences)

    def test_diff_chaos_flags_one_sided_logs(self, storm):
        recorded = recording_payload(storm)["chaos"]
        assert diff_chaos(recorded, None) == ["chaos: missing from the replay"]
        assert diff_chaos(None, recorded) == ["chaos: missing from the recording"]
        assert diff_chaos(None, None) == []


class TestGoldensUnchanged:
    """Without [chaos], nothing chaos-related may perturb a run."""

    def test_chaos_free_recording_has_no_chaos_key(self):
        spec_text = """
        [scenario]
        name = "plain"
        [cluster]
        nodes = 2
        partitions_per_node = 2
        [cluster.lsm]
        memory_component_bytes = "32 KiB"
        [workload]
        initial_records = 40
        mix = "A"
        [[workload.phases]]
        name = "steady"
        ops = 30
        """
        result = run_scenario(parse_scenario(spec_text))
        payload = recording_payload(result)
        assert "chaos" not in payload
        assert result.chaos_events == []
        assert result.faulted_site is None
        counters = dict(result.snapshot.counters)
        assert not any(name.startswith(("chaos.", "retry.")) for name in counters)
