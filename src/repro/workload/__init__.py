"""The traffic engine: YCSB-style workloads against the client API.

Key distributions (:mod:`~repro.workload.keygen`), operation mixes
(:mod:`~repro.workload.mixes`), phased schedules
(:mod:`~repro.workload.schedule`), and the :class:`WorkloadDriver`
(:mod:`~repro.workload.driver`) that executes it all through
:class:`~repro.api.dataset.Dataset` handles with deterministic seeding from
``ClusterConfig.seed``.  Telemetry lands in :mod:`repro.metrics` via the
cluster event bus, tagged with the cluster phase (steady vs rebalance).

Client code should import these names from :mod:`repro.api.workloads`.
"""

from .driver import (
    PhaseResult,
    WorkloadDriver,
    WorkloadReport,
    WorkloadSpec,
)
from .keygen import (
    DISTRIBUTIONS,
    HotspotKeys,
    KeyGenerator,
    LatestKeys,
    UniformKeys,
    ZipfianKeys,
    make_key_generator,
)
from .mixes import OPERATIONS, OperationMix, YCSB_MIXES, make_mix
from .schedule import Phase, Schedule, steady_schedule

__all__ = [
    "DISTRIBUTIONS",
    "HotspotKeys",
    "KeyGenerator",
    "LatestKeys",
    "OPERATIONS",
    "OperationMix",
    "Phase",
    "PhaseResult",
    "Schedule",
    "UniformKeys",
    "WorkloadDriver",
    "WorkloadReport",
    "WorkloadSpec",
    "YCSB_MIXES",
    "ZipfianKeys",
    "make_key_generator",
    "make_mix",
    "steady_schedule",
]
