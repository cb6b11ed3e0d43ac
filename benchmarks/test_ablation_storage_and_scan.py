"""Ablations for the Section IV design choices.

* Storage options for the primary index (Option 1: one LSM-tree vs Option 3:
  one LSM-tree per bucket): Option 3 makes moving a bucket read only that
  bucket's bytes, while Option 1 must scan everything.
* Scan modes: the unordered per-bucket scan is cheaper than the merge-sorted
  scan, and the merge-sort penalty grows with the number of buckets per
  partition (the q18 effect).
"""

from conftest import print_figure

from repro.common.reporting import format_table
from repro.bucketed import BucketedLSMTree, ScanMode
from repro.bucketed.scan import estimate_merge_comparisons
from repro.common.config import BucketingConfig, LSMConfig
from repro.common.hashutil import hash_key
from repro.hashing.bucket_id import ROOT_BUCKET, BucketId


def _build_tree(num_buckets, rows=2000):
    depth = (num_buckets - 1).bit_length()
    initial = [ROOT_BUCKET] if num_buckets == 1 else [BucketId(p, depth) for p in range(num_buckets)]
    tree = BucketedLSMTree(
        "primary",
        partition_id=0,
        initial_buckets=initial,
        lsm_config=LSMConfig(memory_component_bytes=1 << 20),
        bucketing_config=BucketingConfig(static=True),
    )
    keys = list(range(rows))
    values = [{"payload": "x" * 64, "key": key} for key in keys]
    hashes = list(map(hash_key, keys))
    for bucket_tree, positions in tree.route_many(hashes):
        bucket_tree.insert_many(keys, values, hashes, positions=positions)
    tree.flush_all()
    return tree


def test_ablation_storage_options_bucket_move_cost(benchmark):
    """Option 3 (per-bucket LSM-trees) reads only the moving bucket's bytes."""

    def run():
        option1 = _build_tree(num_buckets=1)   # everything in one LSM-tree
        option3 = _build_tree(num_buckets=8)   # one LSM-tree per bucket
        # Moving one depth-3 bucket: Option 3 snapshots just that bucket;
        # Option 1 must scan the whole tree and filter.
        moving = BucketId(0b011, 3)
        option3_bytes = sum(c.size_bytes for c in option3.snapshot_bucket(moving))
        option1_bytes = option1.size_bytes  # full scan needed to extract the bucket
        return option1_bytes, option3_bytes

    option1_bytes, option3_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation: bytes read to move one bucket",
        format_table(
            ["storage option", "bytes read"],
            [["Option 1 (single LSM-tree)", option1_bytes], ["Option 3 (bucketed, DynaHash)", option3_bytes]],
        ),
    )
    assert option3_bytes * 4 < option1_bytes


def test_ablation_scan_modes(benchmark):
    """Ordered scans cost more than unordered scans, and more so with more buckets."""

    def run():
        rows = []
        for buckets in (4, 16):
            tree = _build_tree(num_buckets=buckets, rows=3000)
            unordered = sum(1 for _ in tree.scan(mode=ScanMode.UNORDERED))
            ordered = sum(1 for _ in tree.scan(mode=ScanMode.ORDERED))
            assert unordered == ordered
            comparisons = estimate_merge_comparisons(buckets, ordered)
            rows.append([buckets, ordered, comparisons])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation: merge-sort comparisons for ordered bucket scans",
        format_table(["buckets/partition", "records", "extra comparisons"], rows),
    )
    assert rows[1][2] > rows[0][2]
