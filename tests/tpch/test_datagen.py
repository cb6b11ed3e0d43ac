"""Tests for the TPC-H data generator and schema."""

import random

import pytest

from repro.tpch import datagen as d
from repro.tpch.datagen import TPCHGenerator, _below
from repro.tpch.schema import (
    ALL_TABLES,
    LINEITEM,
    LINEITEM_INDEX,
    ORDERS,
    ORDERS_INDEX,
    TABLES_BY_NAME,
    dataset_spec,
    rows_at_scale,
)


class TestSchema:
    def test_eight_tables(self):
        assert len(ALL_TABLES) == 8
        assert set(TABLES_BY_NAME) == {
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        }

    def test_cardinality_ratios(self):
        # Per the TPC-H spec: 4 lineitems per order on average, 10 customers
        # per supplier x 15, etc.
        assert LINEITEM.rows_per_sf == 4 * ORDERS.rows_per_sf
        assert rows_at_scale(ORDERS, 2.0) == 3_000_000

    def test_fixed_tables_ignore_scale(self):
        assert rows_at_scale(TABLES_BY_NAME["nation"], 100.0) == 25
        assert rows_at_scale(TABLES_BY_NAME["region"], 0.001) == 5

    def test_dataset_specs_attach_paper_indexes(self):
        lineitem_spec = dataset_spec(LINEITEM)
        orders_spec = dataset_spec(ORDERS)
        assert lineitem_spec.index_names() == [LINEITEM_INDEX.name]
        assert orders_spec.index_names() == [ORDERS_INDEX.name]
        assert dataset_spec(TABLES_BY_NAME["customer"]).index_names() == []

    def test_lineitem_composite_primary_key(self):
        assert dataset_spec(LINEITEM).primary_key == ("l_orderkey", "l_linenumber")


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        first = list(TPCHGenerator(0.001, seed=7).orders())
        second = list(TPCHGenerator(0.001, seed=7).orders())
        assert first == second

    def test_different_seeds_differ(self):
        first = list(TPCHGenerator(0.001, seed=7).orders())
        second = list(TPCHGenerator(0.001, seed=8).orders())
        assert first != second

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TPCHGenerator(0)

    def test_row_counts_scale(self):
        generator = TPCHGenerator(0.002)
        assert generator.row_count(ORDERS) == 3000
        assert generator.row_count(LINEITEM) == 12000

    def test_orders_have_unique_keys_and_valid_custkeys(self):
        generator = TPCHGenerator(0.001)
        orders = list(generator.orders())
        keys = [o["o_orderkey"] for o in orders]
        assert len(keys) == len(set(keys))
        num_customers = generator.row_count(TABLES_BY_NAME["customer"])
        assert all(1 <= o["o_custkey"] <= num_customers for o in orders)

    def test_lineitem_references_orders_and_has_1_to_7_lines(self):
        generator = TPCHGenerator(0.001)
        orders = list(generator.orders())
        items = list(generator.lineitem(orders_rows=orders))
        order_keys = {o["o_orderkey"] for o in orders}
        assert all(item["l_orderkey"] in order_keys for item in items)
        lines_per_order = {}
        for item in items:
            lines_per_order.setdefault(item["l_orderkey"], set()).add(item["l_linenumber"])
        assert all(1 <= len(lines) <= 7 for lines in lines_per_order.values())
        # Composite primary keys are unique.
        composite = [(i["l_orderkey"], i["l_linenumber"]) for i in items]
        assert len(composite) == len(set(composite))

    def test_dates_are_within_tpch_range(self):
        generator = TPCHGenerator(0.0005)
        for item in generator.lineitem():
            assert "1992-01-01" <= item["l_shipdate"] <= "1998-12-31"

    def test_discounts_and_quantities_in_domain(self):
        generator = TPCHGenerator(0.0005)
        for item in generator.lineitem():
            assert 0.0 <= item["l_discount"] <= 0.1
            assert 1 <= item["l_quantity"] <= 50

    def test_partsupp_composite_keys_unique(self):
        generator = TPCHGenerator(0.001)
        keys = [(r["ps_partkey"], r["ps_suppkey"]) for r in generator.partsupp()]
        assert len(keys) == len(set(keys))

    def test_nation_and_region_fixed_content(self):
        generator = TPCHGenerator(0.001)
        nations = list(generator.nation())
        regions = list(generator.region())
        assert len(nations) == 25
        assert len(regions) == 5
        assert all(0 <= n["n_regionkey"] <= 4 for n in nations)

    def test_all_tables_materialisation(self):
        tables = TPCHGenerator(0.0005).all_tables()
        assert set(tables) == set(TABLES_BY_NAME)
        assert len(tables["lineitem"]) > len(tables["orders"])

    def test_table_dispatch_unknown(self):
        with pytest.raises(KeyError):
            TPCHGenerator(0.001).table("widgets")


def reference_tables(generator):
    """Every table drawn with ``rng.randint`` and ``rng.choice``, as the
    generator drew them before it went through ``_below``."""
    from repro.tpch import datagen as d

    def date(rng, start=1992, end=1998):
        return f"{rng.randint(start, end):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"

    def comment(rng, length=24):
        out = []
        while sum(len(w) + 1 for w in out) < length:
            out.append(rng.choice(d._WORDS))
        return " ".join(out)

    def phone(rng):
        return (
            f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-"
            f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
        )

    count = {table.name: generator.row_count(table) for table in ALL_TABLES}
    rng = generator._rng("region")
    region = [
        {"r_regionkey": k, "r_name": name, "r_comment": comment(rng)}
        for k, name in enumerate(d._REGIONS)
    ]
    rng = generator._rng("nation")
    nation = [
        {"n_nationkey": k, "n_name": name, "n_regionkey": r, "n_comment": comment(rng)}
        for k, (name, r) in enumerate(d._NATIONS)
    ]
    rng = generator._rng("supplier")
    supplier = [
        {
            "s_suppkey": k,
            "s_name": f"Supplier#{k:09d}",
            "s_address": comment(rng, 16),
            "s_nationkey": rng.randint(0, 24),
            "s_phone": phone(rng),
            "s_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
            "s_comment": comment(rng),
        }
        for k in range(1, count["supplier"] + 1)
    ]
    rng = generator._rng("customer")
    customer = [
        {
            "c_custkey": k,
            "c_name": f"Customer#{k:09d}",
            "c_address": comment(rng, 16),
            "c_nationkey": rng.randint(0, 24),
            "c_phone": phone(rng),
            "c_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
            "c_mktsegment": rng.choice(d._SEGMENTS),
            "c_comment": comment(rng),
        }
        for k in range(1, count["customer"] + 1)
    ]
    rng = generator._rng("part")
    part = []
    for k in range(1, count["part"] + 1):
        kind = (
            f"{rng.choice(d._TYPES)} {rng.choice(d._FINISHES)} {rng.choice(d._METALS)}"
        )
        part.append(
            {
                "p_partkey": k,
                "p_name": f"part {k} {rng.choice(d._METALS).lower()}",
                "p_mfgr": f"Manufacturer#{rng.randint(1, 5)}",
                "p_brand": rng.choice(d._BRANDS),
                "p_type": kind,
                "p_size": rng.randint(1, 50),
                "p_container": rng.choice(d._CONTAINERS),
                "p_retailprice": round(900 + (k % 1000) + rng.uniform(0, 100), 2),
                "p_comment": comment(rng, 12),
            }
        )
    rng = generator._rng("partsupp")
    parts, suppliers = count["part"], count["supplier"]
    partsupp = [
        {
            "ps_partkey": p,
            "ps_suppkey": ((p + i * (parts // 4 + 1)) % suppliers) + 1,
            "ps_availqty": rng.randint(1, 9999),
            "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
            "ps_comment": comment(rng, 16),
        }
        for p in range(1, parts + 1)
        for i in range(4)
    ]
    rng = generator._rng("orders")
    orders = []
    for k in range(1, count["orders"] + 1):
        ordered = date(rng)
        orders.append(
            {
                "o_orderkey": k,
                "o_custkey": rng.randint(1, max(1, count["customer"])),
                "o_orderstatus": rng.choice(["O", "F", "P"]),
                "o_totalprice": round(rng.uniform(850.0, 555000.0), 2),
                "o_orderdate": ordered,
                "o_orderpriority": rng.choice(d._PRIORITIES),
                "o_clerk": f"Clerk#{rng.randint(1, 1000):09d}",
                "o_shippriority": 0,
                "o_comment": comment(rng),
            }
        )
    rng = generator._rng("lineitem")
    lineitem = []
    for order in orders:
        year = int(order["o_orderdate"][:4])
        for number in range(1, rng.randint(1, 7) + 1):
            quantity = rng.randint(1, 50)
            extended = round(quantity * rng.uniform(900.0, 2000.0), 2)
            ship_year = min(1998, year + rng.choice([0, 0, 0, 1]))
            shipped = f"{ship_year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            lineitem.append(
                {
                    "l_orderkey": order["o_orderkey"],
                    "l_linenumber": number,
                    "l_partkey": rng.randint(1, max(1, parts)),
                    "l_suppkey": rng.randint(1, max(1, suppliers)),
                    "l_quantity": quantity,
                    "l_extendedprice": extended,
                    "l_discount": round(rng.uniform(0.0, 0.1), 2),
                    "l_tax": round(rng.uniform(0.0, 0.08), 2),
                    "l_returnflag": rng.choice(["R", "A", "N"]),
                    "l_linestatus": rng.choice(["O", "F"]),
                    "l_shipdate": shipped,
                    "l_commitdate": date(rng, ship_year, min(1998, ship_year + 1)),
                    "l_receiptdate": date(rng, ship_year, min(1998, ship_year + 1)),
                    "l_shipinstruct": rng.choice(d._INSTRUCTIONS),
                    "l_shipmode": rng.choice(d._SHIPMODES),
                    "l_comment": comment(rng, 10),
                }
            )
    return {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }


class TestDrawsThroughBelow:
    """The generator draws through ``_below`` instead of ``randint`` and
    ``choice``; every table must be the one those draws made."""

    @pytest.mark.parametrize("seed", [2022, 7])
    @pytest.mark.parametrize("scale_factor", [0.001, 0.004])
    def test_every_table_equals_the_randint_and_choice_reference(self, seed, scale_factor):
        generator = TPCHGenerator(scale_factor=scale_factor, seed=seed)
        tables = generator.all_tables()
        assert tables == reference_tables(generator)

    def test_below_is_randbelow_draw_for_draw(self):
        drawn, reference = random.Random(5), random.Random(5)
        for n in [1, 2, 3, 7, 8, 12, 28, 1000, 9999, 2**40 + 3] * 50:
            assert _below(drawn.getrandbits, n) == reference.randrange(n)
        assert drawn.getstate() == reference.getstate()
