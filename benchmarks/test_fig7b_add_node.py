"""Figure 7b — rebalance time when adding one node back (N-1 -> N).

Paper shape: the bucketing approaches remain much cheaper than Hashing.
Hashing is cheaper when adding than when removing (its work spreads over N
rather than N-1 nodes), while for the bucketing approaches adding is no
cheaper than removing because the single new node is the receive bottleneck.
Spec: ``examples/scenarios/paper/fig7.toml`` (its second step).
"""

from conftest import print_figure, series_table, strategy_series


def test_fig7b_add_node(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig7",), rounds=1, iterations=1)
    remove = strategy_series(cells, lambda r: r.step_outcomes[0].rebalance.simulated_minutes)
    add = strategy_series(cells, lambda r: r.step_outcomes[1].rebalance.simulated_minutes)
    print_figure(
        "Figure 7b: rebalance time, adding one node (simulated minutes)",
        series_table(add, "nodes"),
    )

    for nodes, hashing_add in add["Hashing"].items():
        for strategy in ("StaticHash", "DynaHash"):
            assert add[strategy][nodes] < hashing_add / 2
        # Hashing: adding is cheaper than removing (work over N vs N-1 nodes).
        assert hashing_add <= remove["Hashing"][nodes] * 1.05
    # Bucketing: adding is bottlenecked by the new node, so it is not faster
    # than removing on the larger clusters.
    largest = max(add["Hashing"])
    for strategy in ("StaticHash", "DynaHash"):
        assert add[strategy][largest] >= remove[strategy][largest] * 0.8
