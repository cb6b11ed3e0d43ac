"""A pure-Python TPC-H data generator (a compact dbgen).

Generates rows with the schema, key relationships, value domains and skew
characteristics of TPC-H at an arbitrary (fractional) scale factor, seeded for
reproducibility.  The paper loads SF = 100 per node; the benchmarks here use
small fractional scale factors and let the cost model's ``workload_scale``
account for the difference (see DESIGN.md).

The generator preserves the properties the evaluation depends on:

* primary keys are unique and hash-partition uniformly,
* LineItem has 1-7 lines per order (~4 on average),
* dates span 1992-1998 so the shipdate/orderdate indexes and the date-range
  predicates of the queries are meaningful,
* foreign keys reference existing customers/parts/suppliers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterator, List, Optional

from .schema import (
    ALL_TABLES,
    CUSTOMER,
    ORDERS,
    PART,
    SUPPLIER,
    TableSpec,
    rows_at_scale,
)

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP JAR", "JUMBO PKG"]
_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_FINISHES = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_METALS = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_ORDER_STATUSES = ["O", "F", "P"]
_LINE_STATUSES = ["O", "F"]
_RETURN_FLAGS = ["R", "A", "N"]
#: Years a line ships after its order: the same year three times in four.
_SHIP_LAGS = [0, 0, 0, 1]
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]


_WORDS = ["carefully", "quickly", "furiously", "ironic", "deposits", "accounts",
          "requests", "packages", "pending", "final", "express", "regular"]


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)``, ``n > 0``: CPython's
    ``Random._randbelow_with_getrandbits``, draw for draw, so
    ``a + _below(g, b - a + 1)`` is ``rng.randint(a, b)`` and
    ``s[_below(g, len(s))]`` is ``rng.choice(s)`` for ``g = rng.getrandbits``,
    without their argument checks and method dispatch."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _date(getrandbits: Callable[[int], int], start_year: int = 1992, end_year: int = 1998) -> str:
    year = start_year + _below(getrandbits, end_year - start_year + 1)
    month = 1 + _below(getrandbits, 12)
    day = 1 + _below(getrandbits, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def _comment(getrandbits: Callable[[int], int], length: int = 24) -> str:
    out: List[str] = []
    written = 0  # the joined length so far, plus one
    while written < length:
        word = _WORDS[_below(getrandbits, len(_WORDS))]
        out.append(word)
        written += len(word) + 1
    return " ".join(out)


class TPCHGenerator:
    """Deterministic TPC-H row generator."""

    def __init__(self, scale_factor: float = 0.001, seed: int = 2022) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    def _table_seed(self, table: str) -> int:
        """A per-table seed that is a pure function of (seed, table, scale).

        Hashing the tuple with builtin ``hash`` would salt the table-name
        string per process (PYTHONHASHSEED), generating *different* TPC-H
        data in different processes under the same seed; blake2b is stable
        everywhere.
        """
        material = f"{self.seed}:{table}:{round(self.scale_factor, 6)!r}".encode("utf-8")
        return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")

    def _rng(self, table: str) -> random.Random:
        return random.Random(self._table_seed(table))

    def row_count(self, table: TableSpec) -> int:
        return rows_at_scale(table, self.scale_factor)

    # ------------------------------------------------------------ dimensions

    def region(self) -> Iterator[Dict]:
        g = self._rng("region").getrandbits
        for key, name in enumerate(_REGIONS):
            yield {"r_regionkey": key, "r_name": name, "r_comment": _comment(g)}

    def nation(self) -> Iterator[Dict]:
        g = self._rng("nation").getrandbits
        for key, (name, region_key) in enumerate(_NATIONS):
            yield {
                "n_nationkey": key,
                "n_name": name,
                "n_regionkey": region_key,
                "n_comment": _comment(g),
            }

    def supplier(self) -> Iterator[Dict]:
        rng = self._rng("supplier")
        g = rng.getrandbits
        for key in range(1, self.row_count(SUPPLIER) + 1):
            yield {
                "s_suppkey": key,
                "s_name": f"Supplier#{key:09d}",
                "s_address": _comment(g, 16),
                "s_nationkey": _below(g, 25),
                "s_phone": f"{10 + _below(g, 25)}-{100 + _below(g, 900)}-{100 + _below(g, 900)}-{1000 + _below(g, 9000)}",
                "s_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
                "s_comment": _comment(g),
            }

    def customer(self) -> Iterator[Dict]:
        rng = self._rng("customer")
        g = rng.getrandbits
        for key in range(1, self.row_count(CUSTOMER) + 1):
            yield {
                "c_custkey": key,
                "c_name": f"Customer#{key:09d}",
                "c_address": _comment(g, 16),
                "c_nationkey": _below(g, 25),
                "c_phone": f"{10 + _below(g, 25)}-{100 + _below(g, 900)}-{100 + _below(g, 900)}-{1000 + _below(g, 9000)}",
                "c_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
                "c_mktsegment": _SEGMENTS[_below(g, len(_SEGMENTS))],
                "c_comment": _comment(g),
            }

    def part(self) -> Iterator[Dict]:
        rng = self._rng("part")
        g = rng.getrandbits
        for key in range(1, self.row_count(PART) + 1):
            type_name = f"{_TYPES[_below(g, len(_TYPES))]} {_FINISHES[_below(g, len(_FINISHES))]} {_METALS[_below(g, len(_METALS))]}"
            yield {
                "p_partkey": key,
                "p_name": f"part {key} {_METALS[_below(g, len(_METALS))].lower()}",
                "p_mfgr": f"Manufacturer#{1 + _below(g, 5)}",
                "p_brand": _BRANDS[_below(g, len(_BRANDS))],
                "p_type": type_name,
                "p_size": 1 + _below(g, 50),
                "p_container": _CONTAINERS[_below(g, len(_CONTAINERS))],
                "p_retailprice": round(900 + (key % 1000) + rng.uniform(0, 100), 2),
                "p_comment": _comment(g, 12),
            }

    def partsupp(self) -> Iterator[Dict]:
        rng = self._rng("partsupp")
        g = rng.getrandbits
        num_parts = self.row_count(PART)
        num_suppliers = self.row_count(SUPPLIER)
        per_part = 4
        for part_key in range(1, num_parts + 1):
            for i in range(per_part):
                supp_key = ((part_key + i * (num_parts // per_part + 1)) % num_suppliers) + 1
                yield {
                    "ps_partkey": part_key,
                    "ps_suppkey": supp_key,
                    "ps_availqty": 1 + _below(g, 9999),
                    "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
                    "ps_comment": _comment(g, 16),
                }

    # ------------------------------------------------------------- fact data

    def orders(self) -> Iterator[Dict]:
        rng = self._rng("orders")
        g = rng.getrandbits
        num_customers = max(1, self.row_count(CUSTOMER))
        for key in range(1, self.row_count(ORDERS) + 1):
            order_date = _date(g, 1992, 1998)
            yield {
                "o_orderkey": key,
                "o_custkey": 1 + _below(g, num_customers),
                "o_orderstatus": _ORDER_STATUSES[_below(g, len(_ORDER_STATUSES))],
                "o_totalprice": round(rng.uniform(850.0, 555000.0), 2),
                "o_orderdate": order_date,
                "o_orderpriority": _PRIORITIES[_below(g, len(_PRIORITIES))],
                "o_clerk": f"Clerk#{1 + _below(g, 1000):09d}",
                "o_shippriority": 0,
                "o_comment": _comment(g),
            }

    def lineitem(self, orders_rows: Optional[List[Dict]] = None) -> Iterator[Dict]:
        """Generate line items; 1-7 per order, dates derived from the order."""
        rng = self._rng("lineitem")
        g = rng.getrandbits
        num_parts = max(1, self.row_count(PART))
        num_suppliers = max(1, self.row_count(SUPPLIER))
        if orders_rows is None:
            orders_rows = list(self.orders())
        for order in orders_rows:
            lines = 1 + _below(g, 7)
            order_year = int(order["o_orderdate"][:4])
            for line_number in range(1, lines + 1):
                quantity = 1 + _below(g, 50)
                extended = round(quantity * rng.uniform(900.0, 2000.0), 2)
                ship_year = min(1998, order_year + _SHIP_LAGS[_below(g, len(_SHIP_LAGS))])
                ship_date = f"{ship_year:04d}-{1 + _below(g, 12):02d}-{1 + _below(g, 28):02d}"
                yield {
                    "l_orderkey": order["o_orderkey"],
                    "l_linenumber": line_number,
                    "l_partkey": 1 + _below(g, num_parts),
                    "l_suppkey": 1 + _below(g, num_suppliers),
                    "l_quantity": quantity,
                    "l_extendedprice": extended,
                    "l_discount": round(rng.uniform(0.0, 0.1), 2),
                    "l_tax": round(rng.uniform(0.0, 0.08), 2),
                    "l_returnflag": _RETURN_FLAGS[_below(g, len(_RETURN_FLAGS))],
                    "l_linestatus": _LINE_STATUSES[_below(g, len(_LINE_STATUSES))],
                    "l_shipdate": ship_date,
                    "l_commitdate": _date(g, ship_year, min(1998, ship_year + 1)),
                    "l_receiptdate": _date(g, ship_year, min(1998, ship_year + 1)),
                    "l_shipinstruct": _INSTRUCTIONS[_below(g, len(_INSTRUCTIONS))],
                    "l_shipmode": _SHIPMODES[_below(g, len(_SHIPMODES))],
                    "l_comment": _comment(g, 10),
                }

    # -------------------------------------------------------------- dispatch

    def table(self, name: str) -> Iterator[Dict]:
        """Generate any table by name."""
        generators = {
            "region": self.region,
            "nation": self.nation,
            "supplier": self.supplier,
            "customer": self.customer,
            "part": self.part,
            "partsupp": self.partsupp,
            "orders": self.orders,
            "lineitem": self.lineitem,
        }
        if name not in generators:
            raise KeyError(f"unknown TPC-H table {name!r}")
        return generators[name]()

    def all_tables(self) -> Dict[str, List[Dict]]:
        """Materialise every table (orders shared with lineitem for FK consistency)."""
        tables: Dict[str, List[Dict]] = {}
        for table in ALL_TABLES:
            if table.name == "lineitem":
                continue
            tables[table.name] = list(self.table(table.name))
        tables["lineitem"] = list(self.lineitem(orders_rows=tables["orders"]))
        return tables
