"""The scenario runner: compilation onto the API, checks, determinism."""

import pytest

from repro.scenario import (
    diff_snapshots,
    parse_scenario,
    run_scenario,
)

STORM = """
[scenario]
name = "storm"

[cluster]
nodes = 3
partitions_per_node = 2
[cluster.lsm]
memory_component_bytes = "32 KiB"
[cluster.bucketing]
max_bucket_bytes = "48 KiB"

[workload]
initial_records = 120
mix = "A"

[[workload.phases]]
name = "warmup"
ops = 30
keys = "uniform"

[[workload.phases]]
name = "spike"
ops = 50
keys = "hotspot"
rebalance = { add = 1 }

[checks]
expect_nodes = 4
min_total_ops = 80
rebalance_write_p99_gte_steady = true
"""


@pytest.fixture(scope="module")
def storm_result():
    return run_scenario(parse_scenario(STORM))


class TestRun:
    def test_workload_and_rebalance_execute(self, storm_result):
        assert storm_result.nodes_before == 3
        assert storm_result.nodes_after == 4
        assert storm_result.total_ops == 80

    def test_checks_evaluate_and_pass(self, storm_result):
        assert [c.name for c in storm_result.checks] == [
            "expect_nodes",
            "min_total_ops",
            "rebalance_write_p99_gte_steady",
        ]
        assert storm_result.passed

    def test_snapshot_and_describe_captured(self, storm_result):
        assert storm_result.snapshot is not None
        assert storm_result.snapshot.counters["ops.total"] > 0
        assert storm_result.describe["nodes"] == 4
        assert "traffic" in storm_result.describe["datasets"]

    def test_render_mentions_checks_and_phases(self, storm_result):
        text = storm_result.render()
        assert "check expect_nodes: PASS" in text
        assert "tail latency by cluster phase" in text
        assert "scenario 'storm' OK" in text

    def test_failing_check_reported_not_raised(self):
        spec = parse_scenario(STORM.replace("expect_nodes = 4", "expect_nodes = 9"))
        result = run_scenario(spec)
        assert not result.passed
        failed = [c for c in result.checks if not c.passed]
        assert failed[0].name == "expect_nodes"
        assert "9" in failed[0].detail
        assert "FAIL" in result.render()


class TestDeterminism:
    def test_same_spec_same_seed_identical_snapshot(self):
        spec = parse_scenario(STORM)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.snapshot == second.snapshot
        assert diff_snapshots(first.snapshot, second.snapshot) == []

    def test_seed_override_changes_the_run(self):
        spec = parse_scenario(STORM)
        baseline = run_scenario(spec)
        reseeded = run_scenario(spec, seed=31337)
        assert reseeded.seed == 31337
        assert diff_snapshots(baseline.snapshot, reseeded.snapshot) != []


class TestStepsAndChecks:
    def test_datasets_and_steps(self):
        spec = parse_scenario(
            """
            [scenario]
            name = "steps"
            [cluster]
            nodes = 3
            partitions_per_node = 2
            [[datasets]]
            name = "orders"
            primary_key = "o_orderkey"
            [[datasets.secondary_indexes]]
            name = "idx"
            fields = ["o_orderdate"]
            [workload]
            initial_records = 60
            [[workload.phases]]
            name = "steady"
            ops = 20
            [[steps]]
            kind = "rebalance"
            remove = 1
            [checks]
            expect_nodes = 2
            datasets_unchanged_after_steps = true
            """
        )
        result = run_scenario(spec)
        assert result.passed
        assert [o.kind for o in result.step_outcomes] == ["rebalance"]
        assert "records moved" in result.step_outcomes[0].detail
        assert set(result.describe["datasets"]) == {"orders", "traffic"}

    def test_fault_injection_and_recovery_steps(self):
        spec = parse_scenario(
            """
            [scenario]
            name = "faulty"
            [cluster]
            nodes = 3
            partitions_per_node = 2
            workload_scale = 1000.0
            [tpch]
            scale_factor = 0.0002
            tables = ["orders"]
            [[steps]]
            kind = "rebalance"
            target_nodes = 2
            fault_sites = ["cc_fail_before_commit"]
            expect_fault = true
            [[steps]]
            kind = "recover"
            [checks]
            expect_nodes = 3
            datasets_unchanged_after_steps = true
            """
        )
        result = run_scenario(spec)
        assert result.passed
        assert "injected fault" in result.step_outcomes[0].detail
        assert result.step_outcomes[1].kind == "recover"

    def test_unexpected_fault_completion_fails_the_check(self):
        # With no datasets there are no per-dataset protocol operations, so
        # the registered site never fires; the runner records a failing
        # expect_fault check instead of raising.
        spec = parse_scenario(
            """
            [scenario]
            name = "no-fault"
            [cluster]
            nodes = 3
            partitions_per_node = 2
            [[steps]]
            kind = "rebalance"
            add = 1
            fault_sites = ["cc_fail_before_commit"]
            expect_fault = true
            """
        )
        result = run_scenario(spec)
        assert not result.passed
        assert result.checks[0].name == "expect_fault"
        assert "never fired" in result.checks[0].detail

    def test_query_steps_and_identity_check(self):
        spec = parse_scenario(
            """
            [scenario]
            name = "analytics"
            [cluster]
            nodes = 3
            partitions_per_node = 2
            workload_scale = 1000.0
            [tpch]
            scale_factor = 0.0002
            [[steps]]
            kind = "query"
            plan = "q6"
            [[steps]]
            kind = "rebalance"
            remove = 1
            [[steps]]
            kind = "query"
            plan = "q6"
            [checks]
            queries_identical_across_rebalance = true
            """
        )
        result = run_scenario(spec)
        assert result.passed, [c.detail for c in result.checks]
        query_outcomes = [o for o in result.step_outcomes if o.kind == "query"]
        assert len(query_outcomes) == 2


class TestFigureInputs:
    """What the paper's figure specs read back from a run, in memory."""

    SPEC = """
        [scenario]
        name = "figure"
        [cluster]
        nodes = 3
        partitions_per_node = 2
        workload_scale = 1000.0
        [tpch]
        scale_factor_per_node = 0.0001
        tables = ["orders", "lineitem"]
        [[steps]]
        kind = "rebalance"
        remove = 1
        concurrent_lineitem_rows = 60
        [[steps]]
        kind = "query"
        specs = ["q1", "q6"]
        """

    def test_load_rebalance_and_query_reports_are_kept(self):
        result = run_scenario(parse_scenario(self.SPEC))
        load = result.tpch_load
        assert load.scale_factor == pytest.approx(0.0003)
        assert load.row_counts["lineitem"] > 0
        rebalance, query = result.step_outcomes
        assert (rebalance.rebalance.old_nodes, rebalance.rebalance.new_nodes) == (3, 2)
        assert sum(d.replicated_log_records for d in rebalance.rebalance.dataset_reports) > 0
        assert list(query.queries) == ["q1", "q6"]
        assert all(report.simulated_seconds > 0 for report in query.queries.values())
        assert result.snapshot.counters["ops.query"] == 2

    def test_zero_concurrent_rows_writes_nothing(self):
        spec = parse_scenario(self.SPEC.replace("concurrent_lineitem_rows = 60", ""))
        zero = parse_scenario(self.SPEC.replace("= 60", "= 0"))
        assert run_scenario(spec).snapshot == run_scenario(zero).snapshot


class TestRunTimeSpecErrors:
    """What validation cannot see without the live cluster still ends in a
    ScenarioSpecError naming the step or phase, never a bare ConfigError."""

    def test_step_resize_that_does_not_fit_the_cluster(self):
        from repro.scenario import ScenarioSpecError

        spec = parse_scenario(STORM + '\n[[steps]]\nkind = "rebalance"\nremove = 10\n')
        with pytest.raises(ScenarioSpecError, match=r"^steps\[0\]: target_nodes must be at least 1"):
            run_scenario(spec)

    def test_phase_resize_that_does_not_fit_the_cluster(self):
        from repro.scenario import ScenarioSpecError

        spec = parse_scenario(STORM.replace("{ add = 1 }", "{ remove = 10 }"))
        with pytest.raises(ScenarioSpecError, match=r"^workload\.phases\[1\]: target_nodes must be"):
            run_scenario(spec)

    def test_query_plan_over_a_table_the_spec_left_out(self):
        from repro.scenario import ScenarioSpecError

        spec = parse_scenario(
            """
            [scenario]
            name = "partial"
            [tpch]
            scale_factor = 0.0001
            tables = ["orders"]
            [[steps]]
            kind = "query"
            plan = "q3"
            """
        )
        with pytest.raises(ScenarioSpecError, match=r"^steps\[0\]: dataset 'customer' does not exist"):
            run_scenario(spec)
