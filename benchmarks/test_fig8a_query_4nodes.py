"""Figure 8a — TPC-H query time on the original (freshly loaded) 4-node cluster.

Paper shape: StaticHash and DynaHash add negligible overhead over the Hashing
baseline on almost every query; the exception is q18, whose group-by on a
prefix of LineItem's primary key forces the bucketed LSM-tree to merge-sort
its buckets (and StaticHash, with more buckets per partition, pays more than
DynaHash).  Lazy secondary-index cleanup (DynaHash-lazy-cleanup) also adds
only a small overhead.  Specs: ``examples/scenarios/paper/fig8.toml`` and
``fig8_lazy_cleanup.toml``.
"""

from conftest import print_figure, query_seconds, series_table, strategy_series

from repro.tpch import QUERY_NAMES


def test_fig8a_query_time_original_4_nodes(benchmark, paper_figure):
    cells, lazy_cells = benchmark.pedantic(
        lambda: (paper_figure("fig8"), paper_figure("fig8_lazy_cleanup")),
        rounds=1,
        iterations=1,
    )
    seconds = {
        approach: by_nodes[4]
        for approach, by_nodes in strategy_series(cells, query_seconds).items()
    }
    seconds["DynaHash-lazy-cleanup"] = query_seconds(lazy_cells[(4,)])
    print_figure(
        "Figure 8a: TPC-H query time on 4 nodes (simulated seconds)",
        series_table(seconds, "query"),
    )

    hashing = seconds["Hashing"]
    dynahash = seconds["DynaHash"]
    statichash = seconds["StaticHash"]
    lazy = seconds["DynaHash-lazy-cleanup"]

    # Negligible bucketing overhead on every query except q18.
    for query in QUERY_NAMES:
        if query == "q18":
            continue
        assert dynahash[query] < hashing[query] * 1.15, query
        assert statichash[query] < hashing[query] * 1.15, query
    # q18 needs primary-key order: bucketed approaches pay the merge-sort, and
    # StaticHash (more buckets per partition) pays more than DynaHash.
    assert dynahash["q18"] > hashing["q18"] * 1.05
    assert statichash["q18"] >= dynahash["q18"]
    # Lazy secondary-index cleanup is a small overhead on top of DynaHash.
    for query in QUERY_NAMES:
        assert lazy[query] < dynahash[query] * 1.30, query
