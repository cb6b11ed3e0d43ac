"""Figure 7c — DynaHash rebalance time under concurrent data ingestion.

Paper shape: rebalancing a 4-node cluster down to 3 nodes takes longer as the
controlled concurrent write rate on LineItem grows, because the concurrent
writes compete for CPU/IO and their log records must be replicated to the
destinations — but it still completes in a reasonable time at high rates.
Spec: ``examples/scenarios/paper/fig7c.toml`` (40 rows per krecord/s).
"""

from conftest import print_figure, series_table


def test_fig7c_rebalance_under_concurrent_writes(benchmark, paper_figure):
    cells = benchmark.pedantic(paper_figure, args=("fig7c",), rounds=1, iterations=1)
    reports = {rows: result.step_outcomes[0].rebalance for (rows,), result in cells.items()}
    minutes = {rows: report.simulated_minutes for rows, report in reports.items()}
    print_figure(
        "Figure 7c: DynaHash rebalance time vs concurrent writes (simulated minutes)",
        series_table({"DynaHash": minutes}, "concurrent LineItem rows"),
    )

    rates = sorted(minutes)
    times = [minutes[rate] for rate in rates]
    # Monotone (allowing tiny numerical noise): more concurrent writes, longer rebalance.
    for earlier, later in zip(times, times[1:], strict=False):
        assert later >= earlier * 0.98
    # The highest write rate is clearly slower than the idle rebalance.
    assert times[-1] > times[0]
    # Concurrent writes to moving buckets were replicated, not lost.
    replicated = sum(
        dataset.replicated_log_records for dataset in reports[rates[-1]].dataset_reports
    )
    assert replicated > 0
