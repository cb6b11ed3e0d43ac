"""``REPRO_BENCH_SCALE`` picks the benchmark preset; a typo stops the run."""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import FULL, SMOKE

CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "value, expected", [(None, SMOKE), ("smoke", SMOKE), ("full", FULL), ("FULL", FULL)]
)
def test_accepted_values_select_their_preset(bench_conftest, monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
    assert bench_conftest._selected_scale() is expected


@pytest.mark.parametrize("value", ["ful", "FULL-ish", ""])
def test_unknown_value_is_a_usage_error_naming_the_accepted_ones(
    bench_conftest, monkeypatch, value
):
    monkeypatch.setenv("REPRO_BENCH_SCALE", value)
    with pytest.raises(pytest.UsageError) as raised:
        bench_conftest.pytest_configure(None)
    message = str(raised.value)
    assert repr(value) in message
    assert "smoke" in message and "full" in message
