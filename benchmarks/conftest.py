"""Shared configuration for the figure-regeneration benchmarks.

Every benchmark runs the corresponding experiment driver exactly once
(``benchmark.pedantic(..., rounds=1, iterations=1)``) and prints the series
the paper's figure plots.  The scale is controlled by the ``REPRO_BENCH_SCALE``
environment variable: ``smoke`` (default, seconds per figure) or ``full``
(the paper's full 2/4/8/16-node sweep; minutes per figure); any other value
fails collection.
"""

import os

import pytest

from repro.bench import FULL, SMOKE

#: The accepted ``REPRO_BENCH_SCALE`` values (case-insensitive).
SCALES = {"smoke": SMOKE, "full": FULL}


def _selected_scale():
    value = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    scale = SCALES.get(value.lower())
    if scale is None:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE={value!r} is not a bench scale; "
            f"accepted values: {', '.join(SCALES)}"
        )
    return scale


def pytest_configure(config):
    # A typo fails collection instead of quietly running the smoke scale.
    _selected_scale()


@pytest.fixture(scope="session")
def bench_scale():
    """The benchmark scale preset selected for this run."""
    return _selected_scale()


@pytest.fixture(scope="session")
def large_cluster_nodes(bench_scale):
    """Node count used for the paper's "16 node" figure panels.

    The smoke preset uses its largest configured cluster instead of 16 nodes
    so the whole suite stays fast; the full preset uses 16.
    """
    return max(bench_scale.node_counts)


def print_figure(title: str, body: str) -> None:
    """Print a figure table with a recognisable banner."""
    print(f"\n=== {title} ===")
    print(body)
