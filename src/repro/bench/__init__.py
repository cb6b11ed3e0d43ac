"""Benchmark harness: the hot-path microbenchmarks (:mod:`repro.bench.micro`).

The paper's figures are not drivers here: they are the committed sweep specs
under ``examples/scenarios/paper/``, run through
:func:`repro.scenario.run_scenario` (``python -m repro sweep``).
"""

__all__: list = []
