"""Ablations for the Section V design choices.

* Algorithm 2 (greedy BALANCE) against a naive round-robin reassignment: the
  greedy algorithm achieves the same balance while moving far fewer buckets.
* Bucket-count / bucket-size trade-off (StaticHash 256 buckets vs DynaHash's
  size-capped buckets): more buckets per partition give a finer balance after
  an uneven rebalance but a larger q18-style ordered-scan penalty.
* Lazy vs eager secondary-index cleanup: lazy cleanup defers the rewrite to
  the next merge at a small, bounded query-time cost.
"""

from conftest import print_figure

from repro.common.reporting import format_table
from repro.bucketed.scan import estimate_merge_comparisons
from repro.common.config import LSMConfig
from repro.hashing.extendible import GlobalDirectory
from repro.hashing.static_bucket import static_directory
from repro.lsm.tree import LSMTree
from repro.rebalance.plan import compute_balanced_directory, compute_round_robin_directory


def test_ablation_balance_vs_round_robin(benchmark):
    def run():
        directory = GlobalDirectory.initial(num_partitions=16, buckets_per_partition=4)
        targets = list(range(12))
        nodes = {pid: f"nc{pid // 4}" for pid in range(16)}
        greedy = compute_balanced_directory(directory, targets, nodes)
        naive = compute_round_robin_directory(directory, targets)
        return greedy, naive

    greedy, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation: Algorithm 2 vs round-robin reassignment",
        format_table(
            ["planner", "buckets moved", "normalized imbalance"],
            [
                ["Algorithm 2 (greedy)", greedy.moved_buckets, round(greedy.normalized_imbalance(), 3)],
                ["round-robin", naive.moved_buckets, round(naive.normalized_imbalance(), 3)],
            ],
        ),
    )
    assert greedy.moved_buckets < naive.moved_buckets
    assert greedy.normalized_imbalance() <= naive.normalized_imbalance() * 1.25


def test_ablation_bucket_count_tradeoff(benchmark):
    """More buckets -> better balance on an uneven partition count, worse ordered scans."""

    def run():
        rows = []
        for total_buckets in (16, 64, 256):
            directory = static_directory(total_buckets, num_partitions=12)
            load = directory.normalized_load()
            imbalance = max(load.values()) / (sum(load.values()) / len(load))
            per_partition = total_buckets / 12
            comparisons = estimate_merge_comparisons(max(1, int(per_partition)), 100_000)
            rows.append([total_buckets, round(imbalance, 3), comparisons])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation: bucket count vs balance and ordered-scan cost (12 partitions)",
        format_table(["total buckets", "normalized imbalance", "q18-style comparisons"], rows),
    )
    imbalances = [row[1] for row in rows]
    comparisons = [row[2] for row in rows]
    assert imbalances[0] >= imbalances[-1]
    assert comparisons[0] <= comparisons[-1]


def test_ablation_lazy_vs_eager_cleanup(benchmark):
    """Lazy cleanup avoids an immediate rewrite at a small extra read cost."""

    def run():
        def build():
            tree = LSMTree(
                "secondary",
                config=LSMConfig(memory_component_bytes=1 << 20),
                routing_key_extractor=lambda composite: composite[-1],
            )
            for key in range(4000):
                tree.insert((f"sk-{key % 97}", key), {"covered": key})
                if key % 1000 == 999:
                    tree.flush()
            tree.flush()
            return tree

        prefix_to_drop = 0  # depth-1 bucket "0" moved away
        lazy = build()
        lazy.invalidate_bucket(prefix_to_drop, 1)
        lazy_rewrite_bytes = lazy.stats.bytes_merged_written
        lazy_scan_bytes = 0
        before = lazy.stats.snapshot()
        visible_lazy = sum(1 for _ in lazy.scan())
        lazy_scan_bytes = lazy.stats.diff(before).bytes_read

        eager = build()
        eager.invalidate_bucket(prefix_to_drop, 1)
        eager.merge_all()  # eager cleanup: rewrite everything now
        eager_rewrite_bytes = eager.stats.bytes_merged_written
        before = eager.stats.snapshot()
        visible_eager = sum(1 for _ in eager.scan())
        eager_scan_bytes = eager.stats.diff(before).bytes_read
        assert visible_lazy == visible_eager
        return [
            ["lazy (DynaHash)", lazy_rewrite_bytes, lazy_scan_bytes],
            ["eager (merge now)", eager_rewrite_bytes, eager_scan_bytes],
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation: lazy vs eager secondary-index cleanup",
        format_table(["cleanup", "rewrite bytes paid now", "bytes read by next full scan"], rows),
    )
    lazy_row, eager_row = rows
    assert lazy_row[1] < eager_row[1]          # lazy defers the rewrite
    assert lazy_row[2] >= eager_row[2]         # at the cost of reading obsolete entries
