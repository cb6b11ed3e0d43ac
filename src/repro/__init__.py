"""DynaHash reproduction: efficient data rebalancing for shared-nothing OLAP systems.

This package reimplements, in simulation, the system described in
*DynaHash: Efficient Data Rebalancing in Apache AsterixDB* (Luo & Carey,
ICDE 2022):

* :mod:`repro.lsm` — the LSM-tree storage substrate,
* :mod:`repro.hashing` — extendible hashing / static bucketing / consistent
  hashing,
* :mod:`repro.bucketed` — the bucketed LSM-tree (Section IV),
* :mod:`repro.cluster` — the AsterixDB-style shared-nothing cluster simulator,
* :mod:`repro.rebalance` — the online rebalance operation (Section V),
* :mod:`repro.query` + :mod:`repro.tpch` — the OLAP query engine and the
  TPC-H workload used by the evaluation,
* :mod:`repro.scenario` — declarative scenario specs; every figure of the
  paper's evaluation is one under ``examples/scenarios/paper/``,
* :mod:`repro.bench` — the hot-path microbenchmarks.

Quickstart (the :mod:`repro.api` client surface)::

    from repro.api import ClusterConfig, Database

    with Database(ClusterConfig(num_nodes=4), strategy="dynahash") as db:
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(rows)
        report = db.remove_nodes(1)    # online rebalance
        print(report.simulated_seconds)

The paper's figures and the traffic and autopilot storms are scenario specs
under ``examples/scenarios/``, run by :mod:`repro.scenario`; see
:mod:`repro.api` for the supported verbs.
"""

__version__ = "1.1.0"

from .common import BucketingConfig, ClusterConfig, CostModelConfig, LSMConfig

__all__ = [
    "BucketingConfig",
    "ClusterConfig",
    "CostModelConfig",
    "LSMConfig",
    "__version__",
]


def _export_cluster_api() -> None:
    """Populate the package namespace with the high-level API.

    The cluster/rebalance modules import the storage substrate; keeping the
    re-exports in a helper gives a single place to extend the public surface.
    """
    from .api import Database, Dataset  # noqa: F401
    from .cluster import SimulatedCluster  # noqa: F401
    from .rebalance import (  # noqa: F401
        ConsistentHashStrategy,
        DynaHashStrategy,
        GlobalHashingStrategy,
        StaticHashStrategy,
        available_strategies,
        register_strategy,
        strategy_by_name,
    )

    globals().update(
        Database=Database,
        Dataset=Dataset,
        SimulatedCluster=SimulatedCluster,
        DynaHashStrategy=DynaHashStrategy,
        StaticHashStrategy=StaticHashStrategy,
        GlobalHashingStrategy=GlobalHashingStrategy,
        ConsistentHashStrategy=ConsistentHashStrategy,
        available_strategies=available_strategies,
        register_strategy=register_strategy,
        strategy_by_name=strategy_by_name,
    )
    __all__.extend(
        [
            "Database",
            "Dataset",
            "SimulatedCluster",
            "DynaHashStrategy",
            "StaticHashStrategy",
            "GlobalHashingStrategy",
            "ConsistentHashStrategy",
            "available_strategies",
            "register_strategy",
            "strategy_by_name",
        ]
    )


try:  # pragma: no cover - exercised indirectly by every integration test
    _export_cluster_api()
except ImportError:
    # During partial builds (e.g. importing repro.common alone while the
    # higher layers are not present) the subpackages remain usable directly.
    pass
