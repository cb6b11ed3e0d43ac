"""Figure 8b — TPC-H query time on the original larger cluster (paper: 16 nodes).

Paper shape: same story as Figure 8a, plus scale-up — because the data volume
grows with the cluster, per-query times stay nearly constant as the cluster
grows from 4 nodes to 16.  Spec: ``examples/scenarios/paper/fig8.toml``, whose
largest ``nodes`` value stands in for 16.
"""

from conftest import print_figure, query_seconds, series_table, strategy_series

from repro.tpch import QUERY_NAMES


def test_fig8b_query_time_original_large_cluster(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig8",), rounds=1, iterations=1)
    seconds = strategy_series(cells, query_seconds)
    large_nodes = max(seconds["DynaHash"])
    large = {approach: by_nodes[large_nodes] for approach, by_nodes in seconds.items()}
    print_figure(
        f"Figure 8b: TPC-H query time on {large_nodes} nodes (simulated seconds)",
        series_table(large, "query"),
    )

    hashing = large["Hashing"]
    dynahash = large["DynaHash"]
    for query in QUERY_NAMES:
        if query == "q18":
            continue
        assert dynahash[query] < hashing[query] * 1.15, query
    assert dynahash["q18"] > hashing["q18"] * 1.05

    # Scale-up: per-query time stays roughly flat as data and nodes grow together.
    small = seconds["DynaHash"][4]
    for query in QUERY_NAMES:
        ratio = dynahash[query] / small[query]
        assert 0.5 < ratio < 2.0, f"{query} did not scale up (ratio {ratio:.2f})"
