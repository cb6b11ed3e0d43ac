"""Spec validation: strict keys, actionable messages, cross-field conflicts."""

import pytest

from repro.scenario import (
    ScenarioSpec,
    ScenarioSpecError,
    parse_bytes,
    parse_scenario,
)

MINIMAL = """
[scenario]
name = "minimal"

[workload]
initial_records = 10

[[workload.phases]]
name = "steady"
ops = 5
"""


def spec_from(text):
    return parse_scenario(text, "toml", "<test>")


class TestMinimalAndRoundTrip:
    def test_minimal_spec_parses(self):
        spec = spec_from(MINIMAL)
        assert spec.name == "minimal"
        assert spec.workload.phases[0].name == "steady"

    def test_mapping_round_trip_is_identity(self):
        spec = spec_from(MINIMAL)
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_full_spec_round_trips(self):
        text = """
        [scenario]
        name = "full"
        description = "everything at once"
        [cluster]
        nodes = 3
        partitions_per_node = 2
        seed = 7
        strategy = "dynahash"
        workload_scale = 2.0
        [cluster.lsm]
        memory_component_bytes = 32768
        [cluster.bucketing]
        max_bucket_bytes = 49152
        [[datasets]]
        name = "orders"
        primary_key = "o_orderkey"
        [[datasets.secondary_indexes]]
        name = "idx"
        fields = ["o_orderdate"]
        included_fields = ["o_custkey"]
        [tpch]
        scale_factor = 0.0002
        tables = ["orders"]
        [workload]
        dataset = "traffic"
        initial_records = 50
        mix = { read = 0.5, insert = 0.5 }
        [[workload.phases]]
        name = "steady"
        ops = 20
        [[steps]]
        kind = "rebalance"
        add = 1
        [checks]
        expect_nodes = 4
        """
        spec = spec_from(text)
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_json_and_toml_agree(self):
        import json

        spec = spec_from(MINIMAL)
        via_json = parse_scenario(json.dumps(spec.to_mapping()), "json")
        assert via_json == spec


class TestStrictKeys:
    def test_unknown_top_level_section(self):
        with pytest.raises(ScenarioSpecError, match=r"unknown key.*'wrkload'"):
            spec_from(MINIMAL + "\n[wrkload]\nx = 1\n")

    def test_unknown_cluster_key_names_section_and_allowed(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from("[scenario]\nname = \"x\"\n[cluster]\nnode = 3\n")
        message = str(excinfo.value)
        assert "cluster" in message and "'node'" in message and "nodes" in message

    def test_unknown_workload_key_typo(self):
        with pytest.raises(ScenarioSpecError, match=r"workload.*initial_recrods"):
            spec_from(
                "[scenario]\nname = \"x\"\n[workload]\ninitial_recrods = 10\n"
            )

    def test_unknown_phase_key_carries_index(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 5
        [[workload.phases]]
        name = "b"
        ops = 5
        opps = 9
        """
        with pytest.raises(ScenarioSpecError, match=r"workload\.phases\[1\].*opps"):
            spec_from(text)

    def test_missing_required_name(self):
        with pytest.raises(ScenarioSpecError, match=r"scenario.*missing required.*name"):
            spec_from("[scenario]\ndescription = \"no name\"\n[workload]\n")

    def test_wrong_type_is_reported(self):
        with pytest.raises(ScenarioSpecError, match=r"cluster\.nodes.*expected int"):
            spec_from("[scenario]\nname = \"x\"\n[cluster]\nnodes = \"four\"\n[workload]\n")


class TestPhaseOrdering:
    def test_duplicate_phase_names_rejected(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "steady"
        ops = 5
        [[workload.phases]]
        name = "steady"
        ops = 5
        """
        with pytest.raises(ScenarioSpecError, match=r"unique.*steady"):
            spec_from(text)

    def test_all_zero_op_schedule_rejected(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 0
        [[workload.phases]]
        name = "b"
        ops = 0
        """
        with pytest.raises(ScenarioSpecError, match=r"no traffic"):
            spec_from(text)

    def test_two_rebalance_phases_rejected(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 5
        rebalance = { add = 1 }
        [[workload.phases]]
        name = "b"
        ops = 5
        rebalance = { remove = 1 }
        """
        with pytest.raises(ScenarioSpecError, match=r"at most one phase"):
            spec_from(text)

    def test_rebalance_needs_exactly_one_key(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 5
        rebalance = { add = 1, remove = 1 }
        """
        with pytest.raises(ScenarioSpecError, match=r"exactly one of add/remove/target_nodes"):
            spec_from(text)

    def test_negative_ops_rejected(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = -5
        """
        with pytest.raises(ScenarioSpecError, match=r"ops"):
            spec_from(text)

    def test_max_seconds_on_rebalance_phase_rejected(self):
        text = """
        [scenario]
        name = "x"
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 40
        rebalance = { add = 1 }
        max_seconds = 0.0001
        """
        with pytest.raises(
            ScenarioSpecError, match=r": workload: phase 'a': max_seconds cannot be combined"
        ):
            spec_from(text)


class TestConflictsAndRegistries:
    def test_autopilot_conflicts_with_scheduled_rebalance(self):
        text = """
        [scenario]
        name = "x"
        [autopilot]
        policy = "cost_aware"
        [workload]
        [[workload.phases]]
        name = "spike"
        ops = 5
        rebalance = { add = 1 }
        """
        with pytest.raises(ScenarioSpecError, match=r"autopilot.*spike"):
            spec_from(text)

    def test_dry_run_conflicts_with_rebalance_check(self):
        text = """
        [scenario]
        name = "x"
        [autopilot]
        policy = "cost_aware"
        dry_run = true
        [workload]
        [[workload.phases]]
        name = "a"
        ops = 5
        [checks]
        min_autopilot_rebalances = 1
        """
        with pytest.raises(ScenarioSpecError, match=r"dry_run"):
            spec_from(text)

    def test_autopilot_check_without_autopilot_section(self):
        with pytest.raises(ScenarioSpecError, match=r"min_autopilot_rebalances"):
            spec_from(MINIMAL + "\n[checks]\nmin_autopilot_rebalances = 1\n")

    def test_unknown_policy_lists_registered(self):
        text = "[scenario]\nname = \"x\"\n[autopilot]\npolicy = \"magic\"\n[workload]\n"
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from(text)
        assert "magic" in str(excinfo.value)
        assert "cost_aware" in str(excinfo.value)

    def test_conflicting_policy_options_fail_at_parse_time(self):
        text = """
        [scenario]
        name = "x"
        [autopilot]
        policy = "cost_aware"
        [autopilot.options]
        not_an_option = 1
        [workload]
        """
        with pytest.raises(ScenarioSpecError, match=r"cost_aware.*rejected"):
            spec_from(text)

    def test_unknown_strategy_lists_registered(self):
        text = "[scenario]\nname = \"x\"\n[cluster]\nstrategy = \"magic\"\n[workload]\n"
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from(text)
        assert "dynahash" in str(excinfo.value)

    def test_strategy_aliases_accepted(self):
        spec = spec_from(
            "[scenario]\nname = \"x\"\n[cluster]\nstrategy = \"static\"\n[workload]\n"
        )
        assert spec.cluster.strategy == "static"

    def test_bad_strategy_options_fail_at_parse_time(self):
        text = """
        [scenario]
        name = "x"
        [cluster]
        strategy = "static"
        [cluster.strategy_options]
        bogus = 3
        [workload]
        """
        with pytest.raises(ScenarioSpecError, match=r"cluster\.strategy"):
            spec_from(text)

    def test_unknown_mix_lists_presets(self):
        text = "[scenario]\nname = \"x\"\n[workload]\nmix = \"Z\"\n"
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from(text)
        assert "'Z'" in str(excinfo.value) and "A" in str(excinfo.value)

    def test_unknown_distribution_lists_choices(self):
        text = "[scenario]\nname = \"x\"\n[workload]\nkeys = \"gaussian\"\n"
        with pytest.raises(ScenarioSpecError, match=r"gaussian.*zipfian"):
            spec_from(text)


class TestSteps:
    def test_unknown_step_kind(self):
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]\.kind.*'resize'"):
            spec_from(MINIMAL + "\n[[steps]]\nkind = \"resize\"\n")

    def test_recover_without_expected_fault(self):
        with pytest.raises(ScenarioSpecError, match=r"recover.*expect_fault"):
            spec_from(MINIMAL + "\n[[steps]]\nkind = \"recover\"\n")

    def test_expect_fault_needs_fault_sites(self):
        text = MINIMAL + "\n[[steps]]\nkind = \"rebalance\"\nadd = 1\nexpect_fault = true\n"
        with pytest.raises(ScenarioSpecError, match=r"expect_fault.*fault_sites"):
            spec_from(text)

    def test_unknown_fault_site_lists_valid(self):
        text = (
            MINIMAL
            + "\n[[steps]]\nkind = \"rebalance\"\nadd = 1\n"
            + "fault_sites = [\"bogus_site\"]\nexpect_fault = true\n"
        )
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from(text)
        assert "bogus_site" in str(excinfo.value)
        assert "cc_fail_before_commit" in str(excinfo.value)

    def test_query_step_needs_tpch(self):
        with pytest.raises(ScenarioSpecError, match=r"query steps.*tpch"):
            spec_from(MINIMAL + "\n[[steps]]\nkind = \"query\"\nplan = \"q1\"\n")

    def test_fault_sites_without_expect_fault_rejected(self):
        text = (
            MINIMAL
            + "\n[[steps]]\nkind = \"rebalance\"\nadd = 1\n"
            + "fault_sites = [\"cc_fail_before_commit\"]\n"
        )
        with pytest.raises(ScenarioSpecError, match=r"expect_fault"):
            spec_from(text)

    def test_queries_identical_check_needs_repeated_plan(self):
        text = """
        [scenario]
        name = "x"
        [tpch]
        scale_factor = 0.0001
        [[steps]]
        kind = "query"
        plan = "q1"
        [checks]
        queries_identical_across_rebalance = true
        """
        with pytest.raises(ScenarioSpecError, match=r"before and after a rebalance"):
            spec_from(text)

    def test_queries_identical_check_needs_a_rebalance_between_occurrences(self):
        # Same plan twice but no completing rebalance between them: the check
        # could never pass, so the validator rejects it.
        text = """
        [scenario]
        name = "x"
        [tpch]
        scale_factor = 0.0001
        [[steps]]
        kind = "query"
        plan = "q1"
        [[steps]]
        kind = "query"
        plan = "q1"
        [checks]
        queries_identical_across_rebalance = true
        """
        with pytest.raises(ScenarioSpecError, match=r"could never pass"):
            spec_from(text)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioSpecError, match=r"nothing to do"):
            spec_from("[scenario]\nname = \"x\"\n")


TPCH_ONLY = """
[scenario]
name = "x"
[tpch]
scale_factor = 0.0001
tables = ["orders", "lineitem"]
"""


class TestPaperFigureKeys:
    """The three keys the paper's figure specs need: per-node TPC-H scale,
    concurrent LineItem writes during a rebalance, and query-spec steps."""

    def test_query_specs_step_round_trips(self):
        spec = spec_from(TPCH_ONLY + '[[steps]]\nkind = "query"\nspecs = ["q1", "q18"]\n')
        assert spec.steps[0].specs == ("q1", "q18")
        assert spec.steps[0].plan is None
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_unknown_query_spec_is_located(self):
        text = TPCH_ONLY + '[[steps]]\nkind = "query"\nspecs = ["q1", "q99"]\n'
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]\.specs: unknown query spec.*q99.*q22"):
            spec_from(text)

    @pytest.mark.parametrize(
        "body", ['plan = "q1"\nspecs = ["q1"]\n', ""], ids=["both", "neither"]
    )
    def test_query_step_takes_exactly_one_of_plan_and_specs(self, body):
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]: give exactly one of plan and specs"):
            spec_from(TPCH_ONLY + '[[steps]]\nkind = "query"\n' + body)

    def test_both_scale_keys_are_located(self):
        text = TPCH_ONLY.replace("[tpch]\n", "[tpch]\nscale_factor_per_node = 0.0001\n")
        with pytest.raises(
            ScenarioSpecError, match=r": tpch: give exactly one of scale_factor and scale_factor_per_node"
        ):
            spec_from(text)

    def test_scale_per_node_grows_with_the_nodes_axis(self):
        text = TPCH_ONLY.replace("scale_factor = 0.0001", "scale_factor_per_node = 0.0002")
        spec = spec_from(text)
        assert spec.tpch.total_scale_factor(4) == 0.0008
        assert spec_from(TPCH_ONLY).tpch.total_scale_factor(4) == 0.0001
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_negative_concurrent_rows_are_located(self):
        text = TPCH_ONLY + '[[steps]]\nkind = "rebalance"\nadd = 1\nconcurrent_lineitem_rows = -1\n'
        with pytest.raises(
            ScenarioSpecError, match=r"steps\[0\]\.concurrent_lineitem_rows: must be non-negative"
        ):
            spec_from(text)

    def test_concurrent_rows_need_lineitem_loaded(self):
        text = (
            TPCH_ONLY.replace('["orders", "lineitem"]', '["orders"]')
            + '[[steps]]\nkind = "rebalance"\nadd = 1\nconcurrent_lineitem_rows = 10\n'
        )
        with pytest.raises(
            ScenarioSpecError, match=r"steps\[0\]\.concurrent_lineitem_rows: .*lineitem"
        ):
            spec_from(text)

    def test_concurrent_rows_need_a_tpch_section(self):
        text = MINIMAL + '[[steps]]\nkind = "rebalance"\nadd = 1\nconcurrent_lineitem_rows = 10\n'
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]\.concurrent_lineitem_rows"):
            spec_from(text)


class TestBytesAndOverrides:
    def test_parse_bytes_accepts_units(self):
        assert parse_bytes("32 KiB") == 32 * 1024
        assert parse_bytes("10GiB") == 10 * 1024**3
        assert parse_bytes("1 MB") == 1_000_000
        assert parse_bytes(4096) == 4096

    def test_parse_bytes_rejects_garbage(self):
        with pytest.raises(ScenarioSpecError, match=r"cluster\.lsm"):
            parse_bytes("lots", "cluster.lsm")

    def test_byte_strings_reach_the_lsm_config(self):
        spec = spec_from(
            "[scenario]\nname = \"x\"\n[cluster.lsm]\n"
            "memory_component_bytes = \"32 KiB\"\n[workload]\n"
        )
        assert spec.cluster.build_config().lsm.memory_component_bytes == 32 * 1024

    def test_seed_override(self):
        spec = spec_from(MINIMAL).with_overrides([("seed", 99)])
        assert spec.cluster.build_config().seed == 99

    def test_strategy_override_drops_options(self):
        text = """
        [scenario]
        name = "x"
        [cluster]
        strategy = "static"
        [cluster.strategy_options]
        total_buckets = 64
        [workload]
        """
        spec = spec_from(text).with_overrides([("strategy", "dynahash")])
        assert spec.cluster.strategy == "dynahash"
        assert dict(spec.cluster.strategy_options) == {}

    def test_scaled_down_caps_ops_and_preload(self):
        text = """
        [scenario]
        name = "x"
        [tpch]
        scale_factor = 0.01
        [workload]
        initial_records = 100000
        [[workload.phases]]
        name = "a"
        ops = 100000
        """
        smoke = spec_from(text).scaled_down(max_phase_ops=40, max_initial_records=100)
        assert smoke.workload.phases[0].ops == 40
        assert smoke.workload.initial_records == 100
        assert smoke.tpch.scale_factor <= 0.0004


class TestSweepSection:
    SWEPT = MINIMAL + """
[sweep]
jobs = 2
[sweep.axes]
strategy = ["dynahash", "statichash"]
seed = [1, 2]
"""

    def test_parses_ordered_axes_and_jobs(self):
        spec = spec_from(self.SWEPT)
        assert spec.sweep is not None
        assert spec.sweep.axes == (
            ("strategy", ("dynahash", "statichash")),
            ("seed", (1, 2)),
        )
        assert spec.sweep.jobs == 2

    def test_round_trips_through_the_mapping(self):
        spec = spec_from(self.SWEPT)
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec
        assert spec.to_mapping()["sweep"]["jobs"] == 2

    def test_absent_section_means_no_sweep(self):
        assert spec_from(MINIMAL).sweep is None
        assert "sweep" not in spec_from(MINIMAL).to_mapping()

    def test_unknown_axis_names_the_aliases_and_roots(self):
        text = MINIMAL + "[sweep.axes]\nbogus = [1]\n"
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from(text)
        assert "sweep.axes.bogus" in str(excinfo.value)
        assert "workload_scale" in str(excinfo.value)

    def test_unknown_strategy_value_lists_the_registry(self):
        text = MINIMAL + '[sweep.axes]\nstrategy = ["nosuch"]\n'
        with pytest.raises(ScenarioSpecError, match="unknown strategy 'nosuch'"):
            spec_from(text)

    def test_non_integer_seed_value(self):
        text = MINIMAL + "[sweep.axes]\nseed = [1.5]\n"
        with pytest.raises(ScenarioSpecError, match="seeds must be integers"):
            spec_from(text)

    def test_empty_axis(self):
        text = MINIMAL + "[sweep.axes]\nseed = []\n"
        with pytest.raises(ScenarioSpecError, match="at least one value"):
            spec_from(text)

    def test_duplicate_axis_values(self):
        text = MINIMAL + "[sweep.axes]\nseed = [3, 3]\n"
        with pytest.raises(ScenarioSpecError, match="unique"):
            spec_from(text)

    def test_jobs_below_one(self):
        text = MINIMAL + "[sweep]\njobs = 0\n"
        with pytest.raises(ScenarioSpecError, match=r"sweep\.jobs"):
            spec_from(text)


class TestWriteP99BudgetSpec:
    def test_parses_per_phase_budgets(self):
        text = MINIMAL + "[checks]\nwrite_p99_budget_ms = { steady = 5.0, rebalance = 25.0 }\n"
        spec = spec_from(text)
        assert spec.checks.write_p99_budget_ms == {"steady": 5.0, "rebalance": 25.0}
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    def test_empty_budgets_stay_out_of_the_mapping(self):
        spec = spec_from(MINIMAL)
        assert "write_p99_budget_ms" not in spec.checks.to_mapping()

    def test_unknown_phase(self):
        text = MINIMAL + "[checks]\nwrite_p99_budget_ms = { warmup = 5.0 }\n"
        with pytest.raises(ScenarioSpecError, match="warmup"):
            spec_from(text)

    def test_non_positive_budget(self):
        text = MINIMAL + "[checks]\nwrite_p99_budget_ms = { steady = 0.0 }\n"
        with pytest.raises(ScenarioSpecError, match="positive milliseconds"):
            spec_from(text)

    def test_boolean_budget_rejected(self):
        text = MINIMAL + "[checks]\nwrite_p99_budget_ms = { steady = true }\n"
        with pytest.raises(ScenarioSpecError, match="positive milliseconds"):
            spec_from(text)


class TestTypedFields:
    """Every key carries its kind, so a wrong-typed or out-of-range value is a
    located error at parse time — these all parsed (or crashed with a bare
    TypeError) before the field declarations drove validation."""

    PHASED = """
    [scenario]
    name = "x"
    [workload]
    [[workload.phases]]
    name = "a"
    ops = 5
    rebalance = { %s }
    """

    def test_step_kind_must_be_a_string(self):
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]\.kind: expected str, got list"):
            ScenarioSpec.from_mapping(
                {"scenario": {"name": "x"}, "steps": [{"kind": ["a"]}]}
            )

    def test_step_without_kind(self):
        with pytest.raises(ScenarioSpecError, match=r"steps\[0\]: missing required.*kind"):
            spec_from(MINIMAL + "\n[[steps]]\nadd = 1\n")

    @pytest.mark.parametrize("key", ["add", "remove", "target_nodes"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            ('"x"', "expected int, got str"),
            ("true", "expected int, got a boolean"),
            ("0", "must be at least 1"),
            ("-1", "must be at least 1"),
        ],
    )
    def test_resize_counts_are_positive_ints(self, key, value, problem):
        where = rf"workload\.phases\[0\]\.rebalance\.{key}: {problem}"
        with pytest.raises(ScenarioSpecError, match=where):
            spec_from(self.PHASED % f"{key} = {value}")
        with pytest.raises(ScenarioSpecError, match=rf"steps\[0\]\.{key}: {problem}"):
            spec_from(MINIMAL + f'\n[[steps]]\nkind = "rebalance"\n{key} = {value}\n')

    def test_tpch_tables_are_checked_against_the_schema(self):
        text = '[scenario]\nname = "x"\n[tpch]\ntables = ["orders", "nope"]\n'
        with pytest.raises(ScenarioSpecError, match=r"tpch\.tables: unknown table.*'nope'.*lineitem"):
            spec_from(text)

    def test_tpch_batch_size_must_be_positive(self):
        with pytest.raises(ScenarioSpecError, match=r"tpch\.batch_size: must be at least 1"):
            spec_from('[scenario]\nname = "x"\n[tpch]\nbatch_size = 0\n')

    def test_workload_scale_must_be_positive(self):
        text = '[scenario]\nname = "x"\n[cluster]\nworkload_scale = 0\n[workload]\n'
        with pytest.raises(ScenarioSpecError, match=r"cluster\.workload_scale: must be positive"):
            spec_from(text)

    def test_workload_dataset_must_not_be_empty(self):
        with pytest.raises(ScenarioSpecError, match=r"workload\.dataset: must not be empty"):
            spec_from('[scenario]\nname = "x"\n[workload]\ndataset = ""\n')

    def test_key_lists_must_not_be_empty(self):
        text = '[scenario]\nname = "x"\n[[datasets]]\nname = "d"\nprimary_key = []\n'
        with pytest.raises(ScenarioSpecError, match=r"datasets\[0\]\.primary_key: must not be empty"):
            spec_from(text)
        text = (
            '[scenario]\nname = "x"\n[[datasets]]\nname = "d"\n'
            '[[datasets.secondary_indexes]]\nname = "i"\nfields = []\n'
        )
        with pytest.raises(ScenarioSpecError, match=r"secondary_indexes\[0\]\.fields: must not be"):
            spec_from(text)

    def test_byte_size_overflow_is_a_spec_error(self):
        with pytest.raises(ScenarioSpecError, match=r"workload\.payload_bytes: expected a byte size"):
            spec_from('[scenario]\nname = "x"\n[workload]\npayload_bytes = "1e999 KiB"\n')

    def test_alias_axis_values_take_the_type_of_the_key_they_alias(self):
        with pytest.raises(ScenarioSpecError, match=r"sweep\.axes\.nodes: expected int, got str"):
            spec_from(MINIMAL + '[sweep.axes]\nnodes = ["a"]\n')
        with pytest.raises(ScenarioSpecError, match=r"sweep\.axes\.workload_scale: must be positive"):
            spec_from(MINIMAL + "[sweep.axes]\nworkload_scale = [0]\n")
        with pytest.raises(
            ScenarioSpecError, match=r"sweep\.axes\.policy: unknown policy 'nosuch' \(registered"
        ):
            spec_from(MINIMAL + '[sweep.axes]\npolicy = ["nosuch"]\n')

    def test_section_entry_points_share_the_generic_walk(self):
        from repro.scenario import ClusterSection, RebalanceStep, WorkloadPhaseSpec

        assert ClusterSection.from_mapping({"nodes": 3}).to_mapping()["nodes"] == 3
        with pytest.raises(ScenarioSpecError, match=r"^cluster: unknown key.*'node'"):
            ClusterSection.from_mapping({"node": 3})
        step = RebalanceStep.from_mapping({"kind": "rebalance", "add": 1}, "steps[3]")
        assert step.to_mapping() == {"kind": "rebalance", "add": 1}
        phase = WorkloadPhaseSpec.from_mapping(
            {"name": "p", "ops": 1, "rebalance": {"remove": 1}}, "workload.phases[0]"
        )
        assert phase.to_mapping()["rebalance"] == {"remove": 1}
