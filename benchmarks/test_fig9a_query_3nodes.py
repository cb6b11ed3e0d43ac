"""Figure 9a — TPC-H query time after rebalancing the 4-node cluster down to 3.

Paper shape: with the bucketing approaches the bucket count no longer divides
the partition count evenly, so some partitions hold one extra bucket.  Most
queries barely notice (they are computation-heavy and the post-shuffle work is
balanced); the overhead is mainly visible on the scan-heavy / order-sensitive
queries (q17, q18, q21 — q18 most of all).  Spec:
``examples/scenarios/paper/fig9.toml``.
"""

from conftest import print_figure, query_seconds, series_table, strategy_series

from repro.tpch import QUERY_NAMES, SCAN_HEAVY_QUERIES


def test_fig9a_query_time_downsized_3_nodes(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig9",), rounds=1, iterations=1)
    seconds = {
        approach: by_nodes[4]
        for approach, by_nodes in strategy_series(cells, query_seconds).items()
    }
    print_figure(
        "Figure 9a: TPC-H query time on the downsized 3-node cluster (simulated seconds)",
        series_table(seconds, "query"),
    )

    hashing = seconds["Hashing"]
    dynahash = seconds["DynaHash"]
    statichash = seconds["StaticHash"]

    # Small overhead on most queries despite the load imbalance.
    overheads = {q: dynahash[q] / hashing[q] for q in QUERY_NAMES}
    small_overhead_queries = [q for q in QUERY_NAMES if q not in SCAN_HEAVY_QUERIES]
    assert sum(overheads[q] for q in small_overhead_queries) / len(small_overhead_queries) < 1.20
    # The order-sensitive q18 remains the worst case for bucketed storage.
    assert overheads["q18"] > 1.10
    assert statichash["q18"] >= dynahash["q18"] * 0.95
    # Every query still completes and returns a positive simulated time.
    assert all(value > 0 for values in seconds.values() for value in values.values())
