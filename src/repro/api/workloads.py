"""Workloads for the client API: TPC-H loading and the traffic engine.

This module is the one import point for everything workload-shaped:

* :func:`load_tpch` — "a database with TPC-H loaded", in API terms, for the
  paper's figure experiments;
* the YCSB-style traffic engine re-exported from :mod:`repro.workload` — key
  distributions, operation mixes, phased schedules, and the
  :class:`~repro.workload.driver.WorkloadDriver` that drives sustained mixed
  traffic through :class:`~repro.api.dataset.Dataset` handles while ``db.metrics`` records phase-tagged latency histograms.

Client code should not import :mod:`repro.workload` or :mod:`repro.tpch`
directly; everything here is also re-exported from :mod:`repro.api`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..tpch.workload import DEFAULT_TABLES, TPCHLoadResult, TPCHWorkload
from ..workload import (
    DISTRIBUTIONS,
    HotspotKeys,
    KeyGenerator,
    LatestKeys,
    OPERATIONS,
    OperationMix,
    Phase,
    PhaseResult,
    Schedule,
    UniformKeys,
    WorkloadDriver,
    WorkloadReport,
    WorkloadSpec,
    YCSB_MIXES,
    ZipfianKeys,
    make_key_generator,
    make_mix,
    steady_schedule,
)
from .database import Database

__all__ = [
    "DEFAULT_TABLES",
    "DISTRIBUTIONS",
    "HotspotKeys",
    "KeyGenerator",
    "LatestKeys",
    "OPERATIONS",
    "OperationMix",
    "Phase",
    "PhaseResult",
    "Schedule",
    "TPCHLoadResult",
    "TPCHWorkload",
    "UniformKeys",
    "WorkloadDriver",
    "WorkloadReport",
    "WorkloadSpec",
    "YCSB_MIXES",
    "ZipfianKeys",
    "load_tpch",
    "make_key_generator",
    "make_mix",
    "steady_schedule",
]


def load_tpch(
    db: Database,
    scale_factor: float = 0.001,
    tables: Sequence[str] = DEFAULT_TABLES,
    seed: Optional[int] = None,
    batch_size: int = 2000,
) -> TPCHLoadResult:
    """Create and load the named TPC-H tables into ``db``.

    Datasets are created with the paper's schema (covering secondary indexes
    on LineItem and Orders) and ingested through data feeds, so ``ingest.*``
    events fire per table.  ``seed=None`` uses the cluster config's seed.
    """
    workload = TPCHWorkload(
        scale_factor=scale_factor,
        seed=db.config.seed if seed is None else seed,
    )
    return workload.load(db.cluster, tables=tables, batch_size=batch_size)
