"""Axis parsing, axis merging, and grid expansion into cells."""

import pytest

from repro.report import expand_cells, merge_axes, parse_axis_arg
from repro.scenario import ScenarioSpecError, parse_scenario

BASE = """
[scenario]
name = "grid"
[cluster]
nodes = 2
seed = 5
[workload]
initial_records = 10
[[workload.phases]]
name = "steady"
ops = 5
"""


def spec_from(text=BASE):
    return parse_scenario(text, "toml", "<test>")


class TestParseAxisArg:
    def test_strings_stay_strings(self):
        assert parse_axis_arg("strategy=dynahash,statichash") == (
            "strategy",
            ("dynahash", "statichash"),
        )

    def test_values_coerce_like_toml_scalars(self):
        assert parse_axis_arg("seed=1,2") == ("seed", (1, 2))
        name, values = parse_axis_arg("workload_scale=1.5")
        assert values == (1.5,) and isinstance(values[0], float)
        assert parse_axis_arg("trace.enabled=true,false") == ("trace.enabled", (True, False))

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ScenarioSpecError, match=r"NAME=VALUE"):
            parse_axis_arg("strategy")

    def test_empty_value_list_is_an_error(self):
        with pytest.raises(ScenarioSpecError, match="at least one value"):
            parse_axis_arg("seed=")

    def test_unknown_axis_lists_the_aliases(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            parse_axis_arg("bogus=1")
        assert "unknown axis" in str(excinfo.value)
        assert "strategy" in str(excinfo.value)

    def test_unknown_strategy_lists_the_registry(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            parse_axis_arg("strategy=nosuch")
        assert "unknown strategy" in str(excinfo.value)
        assert "dynahash" in str(excinfo.value)

    def test_non_integer_seed_is_an_error(self):
        with pytest.raises(ScenarioSpecError, match="seeds must be integers"):
            parse_axis_arg("seed=1.5")

    def test_alias_values_are_typed_by_the_key_they_alias(self):
        with pytest.raises(ScenarioSpecError, match=r"sweep\.axes\.nodes: expected int, got str"):
            parse_axis_arg("nodes=a")
        with pytest.raises(ScenarioSpecError, match="unknown policy 'nosuch'"):
            parse_axis_arg("policy=nosuch")


class TestMergeAxes:
    def test_cli_axis_replaces_spec_axis_in_place(self):
        spec_axes = (("strategy", ("a", "b")), ("seed", (1, 2)))
        merged = merge_axes(spec_axes, (("strategy", ("c",)),))
        assert merged == (("strategy", ("c",)), ("seed", (1, 2)))

    def test_new_cli_axis_appends(self):
        merged = merge_axes((("strategy", ("a",)),), (("seed", (1, 2)),))
        assert merged == (("strategy", ("a",)), ("seed", (1, 2)))


class TestExpandCells:
    def test_odometer_order_last_axis_fastest(self):
        cells = expand_cells(
            spec_from(), (("strategy", ("dynahash", "statichash")), ("seed", (1, 2)))
        )
        assert [cell.cell_id for cell in cells] == [
            "strategy=dynahash,seed=1",
            "strategy=dynahash,seed=2",
            "strategy=statichash,seed=1",
            "strategy=statichash,seed=2",
        ]
        assert [cell.spec.cluster.seed for cell in cells] == [1, 2, 1, 2]
        assert cells[2].spec.cluster.strategy == "statichash"

    def test_overrides_and_sweep_stripping(self):
        text = BASE + "\n[sweep.axes]\nseed = [7, 8]\n"
        cells = expand_cells(spec_from(text), (("seed", (7, 8)),))
        assert all(cell.spec.sweep is None for cell in cells)
        assert cells[0].overrides == (("seed", 7),)

    def test_strategy_override_drops_foreign_options(self):
        text = """
        [scenario]
        name = "grid"
        [cluster]
        strategy = "static"
        [cluster.strategy_options]
        total_buckets = 64
        [workload]
        initial_records = 10
        [[workload.phases]]
        name = "steady"
        ops = 5
        """
        cells = expand_cells(spec_from(text), (("strategy", ("static", "dynahash")),))
        assert dict(cells[0].spec.cluster.strategy_options) == {"total_buckets": 64}
        assert dict(cells[1].spec.cluster.strategy_options) == {}

    def test_dotted_path_reaches_into_arrays(self):
        cells = expand_cells(spec_from(), (("workload.phases.0.ops", (5, 9)),))
        assert [cell.spec.workload.phases[0].ops for cell in cells] == [5, 9]

    def test_array_index_out_of_range(self):
        with pytest.raises(ScenarioSpecError, match="out of range"):
            expand_cells(spec_from(), (("workload.phases.5.ops", (1,)),))

    def test_non_index_segment_on_an_array(self):
        with pytest.raises(ScenarioSpecError, match="not an array index"):
            expand_cells(spec_from(), (("workload.phases.first.ops", (1,)),))

    def test_invalid_combination_carries_the_cell_id(self):
        with pytest.raises(ScenarioSpecError, match=r"cell 'cluster.bogus=1'"):
            expand_cells(spec_from(), (("cluster.bogus", (1,)),))

    def test_no_axes_is_an_error(self):
        with pytest.raises(ScenarioSpecError, match="no axes"):
            expand_cells(spec_from(), ())

    def test_slug_is_filesystem_safe(self):
        cells = expand_cells(spec_from(), (("workload.phases.0.ops", (5,)),))
        assert "=" not in cells[0].slug and "," not in cells[0].slug
        assert cells[0].slug == "workload.phases.0.ops-5"
