"""Benchmark harness: experiment drivers, scaling presets, and table formatting."""

from .config import FULL, SMOKE, BenchScale
from .experiments import (
    PAPER_STRATEGIES,
    QUERY_APPROACHES,
    ConcurrentWriteExperimentResult,
    IngestionExperimentResult,
    QueryExperimentResult,
    ScalingExperimentResult,
    build_loaded_database,
    make_strategy,
    run_concurrent_write_experiment,
    run_ingestion_experiment,
    run_query_experiment,
    run_scaling_experiment,
)
from .reporting import format_table, per_query_table, series_table

__all__ = [
    "BenchScale",
    "ConcurrentWriteExperimentResult",
    "FULL",
    "IngestionExperimentResult",
    "PAPER_STRATEGIES",
    "QUERY_APPROACHES",
    "QueryExperimentResult",
    "SMOKE",
    "ScalingExperimentResult",
    "build_loaded_database",
    "format_table",
    "make_strategy",
    "per_query_table",
    "run_concurrent_write_experiment",
    "run_ingestion_experiment",
    "run_query_experiment",
    "run_scaling_experiment",
    "series_table",
]
