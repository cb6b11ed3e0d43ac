"""Loading the TPC-H workload into a simulated cluster.

The evaluation setup (Section VI-A): every TPC-H table is a hash-partitioned
dataset with the two covering secondary indexes on LineItem and Orders; the
scale factor grows with the cluster ("100 times the number of NCs"), which
:func:`paper_scale_factor` mirrors at a reduced base scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..cluster.reports import IngestReport
from .datagen import TPCHGenerator
from .schema import TABLES_BY_NAME, dataset_spec

#: Tables that dominate storage and the evaluation; benchmarks that need to
#: run fast can load only these.
FACT_TABLES = ("orders", "lineitem")
DEFAULT_TABLES = ("customer", "part", "supplier", "partsupp", "nation", "region") + FACT_TABLES


def paper_scale_factor(num_nodes: int, base_scale_per_node: float = 0.0005) -> float:
    """Scale factor proportional to the cluster size, as in the paper.

    The paper uses SF = 100 x nodes; benchmarks here use
    ``base_scale_per_node`` x nodes and let the cost model's workload scale
    bridge the remaining factor.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    return base_scale_per_node * num_nodes


@dataclass
class TPCHLoadResult:
    """Outcome of loading TPC-H into a cluster."""

    scale_factor: float
    reports: Dict[str, IngestReport] = field(default_factory=dict)
    row_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(self.row_counts.values())

    @property
    def total_simulated_seconds(self) -> float:
        """Load time under slowest-node semantics, summed over datasets
        (AsterixDB feeds load datasets one after another)."""
        return sum(report.simulated_seconds for report in self.reports.values())


class TPCHWorkload:
    """Generates and loads TPC-H data into a :class:`SimulatedCluster`."""

    def __init__(self, scale_factor: float = 0.001, seed: int = 2022) -> None:
        self.scale_factor = scale_factor
        self.seed = seed
        self.generator = TPCHGenerator(scale_factor=scale_factor, seed=seed)

    def create_datasets(self, cluster: Any, tables: Sequence[str] = DEFAULT_TABLES) -> None:
        """Create one dataset per TPC-H table (with the paper's indexes)."""
        for name in tables:
            cluster.create_dataset_from_spec(dataset_spec(TABLES_BY_NAME[name]))

    def load(
        self,
        cluster: Any,
        tables: Sequence[str] = DEFAULT_TABLES,
        create: bool = True,
        batch_size: int = 2000,
    ) -> TPCHLoadResult:
        """Generate and ingest the requested tables; returns per-table reports."""
        if create:
            self.create_datasets(cluster, tables)
        result = TPCHLoadResult(scale_factor=self.scale_factor)
        materialised = {}
        if "lineitem" in tables:
            # LineItem rows derive from Orders rows; generate Orders once so
            # the foreign keys agree even if Orders itself is not loaded.
            materialised["orders"] = list(self.generator.orders())
        for name in tables:
            if name == "lineitem":
                rows: List[dict] = list(self.generator.lineitem(orders_rows=materialised["orders"]))
            elif name == "orders" and "orders" in materialised:
                rows = materialised["orders"]
            else:
                rows = list(self.generator.table(name))
            # Feed-path ingestion (the non-deprecated route; Database handles
            # and legacy ``cluster.ingest`` both funnel through the same feed).
            report = cluster.feed(name, batch_size=batch_size).ingest(rows)
            result.reports[name] = report
            result.row_counts[name] = len(rows)
        return result

    def concurrent_lineitem_rows(self, count: int, start_orderkey: int = 50_000_000) -> List[dict]:
        """Fresh LineItem rows used as concurrent writes during a rebalance
        (the Figure 7c experiment inserts new records into LineItem)."""
        if count <= 0:
            return []
        generator = TPCHGenerator(scale_factor=self.scale_factor, seed=self.seed + 17)
        orders = []
        # 1-7 line items per order; generating one order per requested row
        # guarantees enough rows even in the unluckiest draw.
        needed_orders = max(1, count)
        for index, order in enumerate(generator.orders()):
            if index >= needed_orders:
                break
            order = dict(order)
            order["o_orderkey"] = start_orderkey + index
            orders.append(order)
        rows = []
        for row in generator.lineitem(orders_rows=orders):
            rows.append(row)
            if len(rows) >= count:
                break
        return rows
