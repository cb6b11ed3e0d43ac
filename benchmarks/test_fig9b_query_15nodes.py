"""Figure 9b — TPC-H query time after rebalancing the large cluster down by one node.

Paper shape (16 -> 15 nodes): same as Figure 9a — a small load-imbalance
overhead for the bucketing approaches, visible mainly on the scan-heavy
queries and on q18.  Spec: ``examples/scenarios/paper/fig9.toml``, whose
largest ``nodes`` value stands in for 16.
"""

from conftest import print_figure, query_seconds, series_table, strategy_series

from repro.tpch import QUERY_NAMES, SCAN_HEAVY_QUERIES


def test_fig9b_query_time_downsized_large_cluster(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig9",), rounds=1, iterations=1)
    seconds = strategy_series(cells, query_seconds)
    large_nodes = max(seconds["DynaHash"])
    large = {approach: by_nodes[large_nodes] for approach, by_nodes in seconds.items()}
    print_figure(
        f"Figure 9b: TPC-H query time on the downsized {large_nodes - 1}-node cluster "
        "(simulated seconds)",
        series_table(large, "query"),
    )

    hashing = large["Hashing"]
    dynahash = large["DynaHash"]
    overheads = {q: dynahash[q] / hashing[q] for q in QUERY_NAMES}
    non_scan_heavy = [q for q in QUERY_NAMES if q not in SCAN_HEAVY_QUERIES]
    assert sum(overheads[q] for q in non_scan_heavy) / len(non_scan_heavy) < 1.20
    assert overheads["q18"] > 1.05
    assert all(value > 0 for values in large.values() for value in values.values())
