"""Shared configuration for the figure-regeneration benchmarks.

Each figure of the paper's evaluation is a committed sweep spec under
``examples/scenarios/paper/``.  A figure test asks the session fixture
:func:`paper_figure` for its spec's cells: the fixture expands the spec's
``[sweep.axes]`` and runs every cell through
:func:`repro.scenario.run_scenario` — the path ``python -m repro sweep``
takes — once per session, so figures that share a spec (7a/7b, 8a/8b) share
its run.  Every benchmark is timed once
(``benchmark.pedantic(..., rounds=1, iterations=1)``), prints the series the
figure plots, and asserts the paper's shape.
"""

from pathlib import Path

import pytest

from repro.common.reporting import format_table
from repro.report import expand_cells
from repro.scenario import load_scenario, run_scenario

PAPER_SPECS = Path(__file__).resolve().parents[1] / "examples" / "scenarios" / "paper"

#: The paper's label for each strategy axis value, in its plotting order.
PAPER_NAMES = {"hashing": "Hashing", "statichash": "StaticHash", "dynahash": "DynaHash"}


@pytest.fixture(scope="session")
def paper_figure():
    """``run(name)`` -> ``{axis values: ScenarioResult}`` for every cell of
    ``examples/scenarios/paper/<name>.toml``; each spec runs once."""
    results = {}

    def run(name):
        if name not in results:
            spec = load_scenario(PAPER_SPECS / f"{name}.toml")
            results[name] = {
                tuple(value for _, value in cell.overrides): run_scenario(cell.spec)
                for cell in expand_cells(spec, spec.sweep.axes)
            }
        return results[name]

    return run


def strategy_series(cells, value):
    """``{paper label: {nodes: value(result)}}`` over strategy x nodes cells."""
    series = {label: {} for label in PAPER_NAMES.values()}
    for (strategy, nodes), result in cells.items():
        series[PAPER_NAMES[strategy]][nodes] = value(result)
    return series


def query_seconds(result):
    """``{query: simulated seconds}`` of the run's last (query) step."""
    return {
        name: report.simulated_seconds
        for name, report in result.step_outcomes[-1].queries.items()
    }


def series_table(series, x_label):
    """Render ``{series name: {x: value}}`` with one column per series."""
    xs = list(dict.fromkeys(x for values in series.values() for x in values))
    rows = [[x] + [values.get(x, "-") for values in series.values()] for x in xs]
    return format_table([x_label, *series], rows)


def print_figure(title: str, body: str) -> None:
    """Print a figure table with a recognisable banner."""
    print(f"\n=== {title} ===")
    print(body)
