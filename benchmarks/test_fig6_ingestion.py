"""Figure 6 — TPC-H ingestion time for Hashing / StaticHash / DynaHash.

Paper shape: all three approaches ingest at nearly the same rate (bucketing
adds only a small overhead) and the time rises mildly as the cluster grows
(write stalls on the slowest node).  Spec: ``examples/scenarios/paper/fig6.toml``.
"""

from conftest import print_figure, series_table, strategy_series


def test_fig6_ingestion_time(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig6",), rounds=1, iterations=1)
    minutes = strategy_series(cells, lambda r: r.tpch_load.total_simulated_seconds / 60.0)
    splits = strategy_series(
        cells, lambda r: sum(report.splits for report in r.tpch_load.reports.values())
    )
    print_figure(
        "Figure 6: ingestion time (simulated minutes)", series_table(minutes, "nodes")
    )

    for strategy, by_nodes in minutes.items():
        assert all(value > 0 for value in by_nodes.values())
    # DynaHash and StaticHash stay close to the Hashing baseline (the paper
    # reports only a small bucketing overhead on ingestion).
    for nodes, baseline in minutes["Hashing"].items():
        for strategy in ("StaticHash", "DynaHash"):
            assert minutes[strategy][nodes] < baseline * 1.35
    # DynaHash splits buckets dynamically while loading.
    assert any(count > 0 for count in splits["DynaHash"].values())
