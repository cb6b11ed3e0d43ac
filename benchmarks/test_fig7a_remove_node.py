"""Figure 7a — rebalance time when removing one node (N -> N-1).

Paper shape: both bucketing approaches are several times cheaper than the
global Hashing baseline, because they move only the displaced buckets instead
of rewriting nearly every record.  Spec: ``examples/scenarios/paper/fig7.toml``
(its first step).
"""

from conftest import print_figure, series_table, strategy_series


def test_fig7a_remove_node(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig7",), rounds=1, iterations=1)
    remove = strategy_series(cells, lambda r: r.step_outcomes[0].rebalance)
    minutes = {s: {n: rep.simulated_minutes for n, rep in v.items()} for s, v in remove.items()}
    print_figure(
        "Figure 7a: rebalance time, removing one node (simulated minutes)",
        series_table(minutes, "nodes"),
    )

    for nodes, hashing in minutes["Hashing"].items():
        for strategy in ("StaticHash", "DynaHash"):
            bucketed = minutes[strategy][nodes]
            assert bucketed < hashing / 2, (
                f"{strategy} at {nodes} nodes should rebalance at least 2x faster "
                f"than Hashing ({bucketed:.1f} vs {hashing:.1f} minutes)"
            )
        # Hashing rewrites (nearly) every record; bucketing moves only the
        # removed node's share (~1/N of the records, so exactly half at N=2).
        ratio = remove["DynaHash"][nodes].total_records_moved / max(
            1, remove["Hashing"][nodes].total_records_moved
        )
        assert ratio <= 1.05 / nodes + 0.05, (
            f"DynaHash moved {ratio:.2%} of what Hashing moved at {nodes} nodes"
        )
