"""Experiment drivers regenerating every figure of the paper's evaluation.

Each ``run_*`` function builds fresh simulated clusters, loads TPC-H at the
configured scale, performs the paper's experiment, and returns the series the
corresponding figure plots.  The pytest-benchmark targets under
``benchmarks/`` are thin wrappers that call these drivers, print the
resulting tables and assert the paper's shapes.

Figure map (Section VI):

* Figure 6  — :func:`run_ingestion_experiment`
* Figure 7a/7b — :func:`run_scaling_experiment` (remove / add node)
* Figure 7c — :func:`run_concurrent_write_experiment`
* Figure 8a/8b — :func:`run_query_experiment` (original cluster)
* Figure 9a/9b — :func:`run_query_experiment` with ``downsize=True``

The traffic and autopilot storms built on top of the evaluation are not
drivers: they are the committed scenario specs
``examples/scenarios/traffic_storm.toml`` and ``autopilot_storm.toml``, run
through :func:`repro.scenario.run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Tuple

from ..rebalance.strategies import (
    DynaHashStrategy,
    GlobalHashingStrategy,
    RebalancingStrategy,
    StaticHashStrategy,
)
from ..tpch.queries import QUERY_NAMES, query_spec
from ..tpch.workload import TPCHLoadResult, TPCHWorkload
from .config import SMOKE, BenchScale

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import Database

#: The three approaches the paper evaluates, in its plotting order.
PAPER_STRATEGIES = ("Hashing", "StaticHash", "DynaHash")

#: Tables loaded for the ingestion/rebalance experiments (the two fact tables
#: dominate storage; dimension tables add little signal but real time).
SCALING_TABLES = ("orders", "lineitem")
#: Tables loaded for the query experiments (all of them — the 22 queries touch
#: every table).
QUERY_TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem")


def make_strategy(name: str, scale: BenchScale) -> RebalancingStrategy:
    """Build a strategy configured for the benchmark scale."""
    if name == "Hashing":
        return GlobalHashingStrategy()
    if name == "StaticHash":
        return StaticHashStrategy(total_buckets=scale.static_total_buckets)
    if name == "DynaHash":
        return DynaHashStrategy(max_bucket_bytes=scale.max_bucket_bytes)
    raise ValueError(f"unknown strategy {name!r}")


def build_loaded_database(
    scale: BenchScale,
    num_nodes: int,
    strategy_name: str,
    tables: Sequence[str] = SCALING_TABLES,
) -> "Tuple[Database, TPCHWorkload, TPCHLoadResult]":
    """Open a :class:`~repro.api.Database` with the given strategy and load
    TPC-H into it — the API-level entry point the experiment drivers use."""
    # Imported lazily: repro.api re-exports bench helpers (format_table), so a
    # module-level import here would be circular.
    from ..api import Database

    db = Database(
        scale.cluster_config(num_nodes),
        strategy=make_strategy(strategy_name, scale),
        workload_scale=scale.workload_scale,
    )
    workload = TPCHWorkload(scale_factor=scale.scale_factor(num_nodes), seed=scale.seed)
    load_result = workload.load(db.cluster, tables=tables)
    return db, workload, load_result


# ---------------------------------------------------------------------------
# Figure 6: ingestion time
# ---------------------------------------------------------------------------


@dataclass
class IngestionExperimentResult:
    """Series for Figure 6: ingestion minutes by strategy and cluster size."""

    minutes: Dict[str, Dict[int, float]] = field(default_factory=dict)
    splits: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def series(self) -> Mapping[str, Mapping[int, float]]:
        return self.minutes


def run_ingestion_experiment(
    scale: BenchScale = SMOKE,
    strategies: Sequence[str] = PAPER_STRATEGIES,
    node_counts: Optional[Sequence[int]] = None,
) -> IngestionExperimentResult:
    """Figure 6: TPC-H ingestion time for each approach and cluster size."""
    result = IngestionExperimentResult()
    for strategy_name in strategies:
        result.minutes[strategy_name] = {}
        result.splits[strategy_name] = {}
        for num_nodes in node_counts or scale.node_counts:
            _db, _workload, load = build_loaded_database(scale, num_nodes, strategy_name)
            result.minutes[strategy_name][num_nodes] = load.total_simulated_seconds / 60.0
            result.splits[strategy_name][num_nodes] = sum(
                report.splits for report in load.reports.values()
            )
    return result


# ---------------------------------------------------------------------------
# Figures 7a / 7b: rebalance time when removing / adding a node
# ---------------------------------------------------------------------------


@dataclass
class ScalingExperimentResult:
    """Series for Figures 7a and 7b."""

    remove_minutes: Dict[str, Dict[int, float]] = field(default_factory=dict)
    add_minutes: Dict[str, Dict[int, float]] = field(default_factory=dict)
    records_moved_remove: Dict[str, Dict[int, int]] = field(default_factory=dict)
    records_moved_add: Dict[str, Dict[int, int]] = field(default_factory=dict)


@lru_cache(maxsize=8)
def _cached_scaling_experiment(
    scale: BenchScale, strategies: Tuple[str, ...], node_counts: Tuple[int, ...]
) -> ScalingExperimentResult:
    result = ScalingExperimentResult()
    for strategy_name in strategies:
        result.remove_minutes[strategy_name] = {}
        result.add_minutes[strategy_name] = {}
        result.records_moved_remove[strategy_name] = {}
        result.records_moved_add[strategy_name] = {}
        for num_nodes in node_counts:
            db, _workload, _load = build_loaded_database(scale, num_nodes, strategy_name)
            # Paper protocol: loaded at N nodes, rebalance to N-1 (remove),
            # then back to N (add).
            remove_report = db.remove_nodes(1)
            result.remove_minutes[strategy_name][num_nodes] = remove_report.simulated_minutes
            result.records_moved_remove[strategy_name][num_nodes] = (
                remove_report.total_records_moved
            )
            add_report = db.add_nodes(1)
            result.add_minutes[strategy_name][num_nodes] = add_report.simulated_minutes
            result.records_moved_add[strategy_name][num_nodes] = add_report.total_records_moved
    return result


def run_scaling_experiment(
    scale: BenchScale = SMOKE,
    strategies: Sequence[str] = PAPER_STRATEGIES,
    node_counts: Optional[Sequence[int]] = None,
) -> ScalingExperimentResult:
    """Figures 7a/7b: rebalance time for removing and then re-adding a node."""
    return _cached_scaling_experiment(
        scale, tuple(strategies), tuple(node_counts or scale.node_counts)
    )


# ---------------------------------------------------------------------------
# Figure 7c: rebalance under concurrent writes
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentWriteExperimentResult:
    """Series for Figure 7c: DynaHash rebalance time vs. concurrent write rate."""

    minutes_by_rate: Dict[int, float] = field(default_factory=dict)
    replicated_records_by_rate: Dict[int, int] = field(default_factory=dict)


def run_concurrent_write_experiment(
    scale: BenchScale = SMOKE,
    num_nodes: int = 4,
    write_rates_krecords: Optional[Sequence[int]] = None,
) -> ConcurrentWriteExperimentResult:
    """Figure 7c: rebalance 4 -> 3 nodes while ingesting into LineItem."""
    result = ConcurrentWriteExperimentResult()
    for rate in write_rates_krecords or scale.write_rates_krecords:
        db, workload, _load = build_loaded_database(scale, num_nodes, "DynaHash")
        concurrent_rows = workload.concurrent_lineitem_rows(rate * scale.rows_per_krecord)
        report = db.rebalance(
            num_nodes - 1,
            concurrent_rows={"lineitem": concurrent_rows} if concurrent_rows else None,
        )
        result.minutes_by_rate[rate] = report.simulated_minutes
        result.replicated_records_by_rate[rate] = sum(
            dataset_report.replicated_log_records for dataset_report in report.dataset_reports
        )
    return result


# ---------------------------------------------------------------------------
# Figures 8 and 9: TPC-H query performance
# ---------------------------------------------------------------------------

#: The four approaches of Figure 8 (DynaHash-lazy-cleanup is DynaHash measured
#: right after a rebalance, while its secondary indexes still carry obsolete
#: entries).
QUERY_APPROACHES = ("Hashing", "StaticHash", "DynaHash", "DynaHash-lazy-cleanup")


@dataclass
class QueryExperimentResult:
    """Per-query simulated seconds by approach (one figure panel)."""

    num_nodes: int
    downsized: bool
    seconds: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def approaches(self) -> List[str]:
        return list(self.seconds.keys())


def run_query_experiment(
    scale: BenchScale = SMOKE,
    num_nodes: int = 4,
    downsize: bool = False,
    approaches: Optional[Sequence[str]] = None,
    queries: Sequence[str] = QUERY_NAMES,
) -> QueryExperimentResult:
    """Figures 8 (original cluster) and 9 (after rebalancing down one node).

    ``downsize=False`` measures queries on the freshly loaded N-node cluster
    (Figure 8); ``downsize=True`` first rebalances the datasets down to N-1
    nodes and measures there (Figure 9).  The ``DynaHash-lazy-cleanup``
    approach is DynaHash rebalanced down and back up, so its queries run while
    secondary indexes still contain lazily-invalidated entries (only used for
    Figure 8, as in the paper).
    """
    if approaches is None:
        approaches = QUERY_APPROACHES if not downsize else PAPER_STRATEGIES
    result = QueryExperimentResult(num_nodes=num_nodes, downsized=downsize)
    for approach in approaches:
        strategy_name = "DynaHash" if approach.startswith("DynaHash") else approach
        db, _workload, _load = build_loaded_database(
            scale, num_nodes, strategy_name, tables=QUERY_TABLES
        )
        if downsize:
            db.remove_nodes(1)
        elif approach == "DynaHash-lazy-cleanup":
            # Rebalance down and back up so moved buckets leave obsolete
            # entries behind in the secondary indexes (lazy cleanup).
            db.remove_nodes(1)
            db.add_nodes(1)
        result.seconds[approach] = {}
        for query_name in queries:
            report = db.execute_spec(query_spec(query_name))
            result.seconds[approach][query_name] = report.simulated_seconds
    return result
