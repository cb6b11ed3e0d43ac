"""Removed surface stays removed.

``SimulatedCluster.ingest`` / ``.lookup`` and the bench helper
``build_loaded_cluster`` spent two releases emitting ``DeprecationWarning``;
this module pins down their removal — the attributes no longer exist, the
canonical replacements cover the old behaviour, and none of the supported
paths raise deprecation warnings anymore.  It also pins the deleted
traffic/autopilot and figure experiment drivers, the bench artifact writer,
the EXPERIMENTS.md generator, the never-read NC data log and the per-row
write chain above the LSM tree.
"""

import warnings

import pytest

from repro.api import BucketingConfig, ClusterConfig, Database, KIB, LSMConfig
from repro.cluster import SimulatedCluster


def config():
    return ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=64 * KIB),
    )


def order_rows(count):
    return [
        {"o_orderkey": key, "o_custkey": key % 100, "o_totalprice": float(key)}
        for key in range(count)
    ]


class TestShimsRemoved:
    def test_cluster_ingest_shim_is_gone(self):
        cluster = SimulatedCluster(config(), strategy="dynahash")
        assert not hasattr(cluster, "ingest")

    def test_cluster_lookup_shim_is_gone(self):
        cluster = SimulatedCluster(config(), strategy="dynahash")
        assert not hasattr(cluster, "lookup")

    def test_build_loaded_cluster_is_gone(self):
        import repro.bench

        assert not hasattr(repro.bench, "build_loaded_cluster")
        with pytest.raises(ImportError):
            from repro.bench import build_loaded_cluster  # noqa: F401

    def test_internal_feed_path_replaces_ingest(self):
        """``feed(...).ingest(rows)`` is the canonical low-level write path."""
        cluster = SimulatedCluster(config(), strategy="dynahash")
        cluster.create_dataset("orders", primary_key="o_orderkey")
        report = cluster.feed("orders").ingest(order_rows(100))
        assert report.records == 100
        assert cluster.point_lookup("orders", 3)["o_custkey"] == 3

    def test_api_handles_match_the_internal_path(self):
        rows = order_rows(500)

        low_level = SimulatedCluster(config(), strategy="dynahash")
        low_level.create_dataset("orders", primary_key="o_orderkey")
        low_report = low_level.feed("orders").ingest(rows)

        with Database(config(), strategy="dynahash") as db:
            orders = db.create_dataset("orders", primary_key="o_orderkey")
            api_report = orders.insert(rows)

            assert api_report.records == low_report.records
            assert api_report.bytes_ingested == low_report.bytes_ingested
            assert api_report.per_partition_records == low_report.per_partition_records
            assert api_report.simulated_seconds == pytest.approx(
                low_report.simulated_seconds
            )
            for key in (0, 123, 499, 10_000):
                assert low_level.point_lookup("orders", key) == orders.get(key)


class TestStormDriversRemoved:
    """The traffic and autopilot storms are the committed specs, not drivers;
    the EXPERIMENTS.md generator, the artifact writer and the CLI's own copy
    of the bench flags are gone with them."""

    @pytest.mark.parametrize("storm", ["traffic", "autopilot"])
    def test_storm_driver_is_gone_from_repro_bench(self, storm):
        import repro.bench

        for name in (f"run_{storm}_experiment", f"{storm.capitalize()}ExperimentResult"):
            assert not hasattr(repro.bench, name)
            assert name not in repro.bench.__all__

    @pytest.mark.parametrize("name", ["bench_artifact_dir", "write_bench_artifact", "markdown_table"])
    def test_artifact_and_markdown_helpers_are_gone(self, name):
        import repro.bench

        assert not hasattr(repro.bench, name)
        assert name not in repro.bench.__all__

    @pytest.mark.parametrize("module", ["repro.bench.generate", "repro.bench.artifacts"])
    def test_deleted_module_does_not_import(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_bench_suite_flag_exits_two(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["bench", "--suite", "traffic"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --suite traffic" in capsys.readouterr().err


class TestFigureDriversRemoved:
    """The paper's figures are the committed specs under
    examples/scenarios/paper/; the drivers, the BenchScale presets, the
    series tables and REPRO_BENCH_SCALE are gone."""

    @pytest.mark.parametrize(
        "name",
        [
            "run_ingestion_experiment",
            "run_scaling_experiment",
            "run_concurrent_write_experiment",
            "run_query_experiment",
            "build_loaded_database",
            "make_strategy",
            "BenchScale",
            "SMOKE",
            "FULL",
            "PAPER_STRATEGIES",
            "QUERY_APPROACHES",
            "format_table",
            "series_table",
            "per_query_table",
        ],
    )
    def test_driver_name_is_gone_from_repro_bench(self, name):
        import repro.bench

        assert not hasattr(repro.bench, name)
        assert name not in repro.bench.__all__

    @pytest.mark.parametrize(
        "module", ["repro.bench.experiments", "repro.bench.config", "repro.bench.reporting"]
    )
    def test_deleted_module_does_not_import(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_bench_scale_env_var_is_not_read(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for path in [*root.joinpath("src").rglob("*.py"), *root.joinpath("benchmarks").rglob("*.py")]:
            assert "REPRO_BENCH_SCALE" not in path.read_text(), path


class TestDataLogRemoved:
    """The NC data log, its replay module and the ``wal``/``log`` parameters
    are gone; the CC metadata log is the only log."""

    def test_replay_module_does_not_import(self):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.lsm.recovery")

    def test_partition_takes_no_wal(self):
        from repro.cluster import DatasetSpec, StoragePartition
        from repro.hashing.bucket_id import ROOT_BUCKET
        from repro.lsm import WriteAheadLog

        spec = DatasetSpec.create("t", "k")
        with pytest.raises(TypeError):
            StoragePartition(spec, 0, "nc0", [ROOT_BUCKET], wal=WriteAheadLog())
        partition = StoragePartition(spec, 0, "nc0", [ROOT_BUCKET])
        assert not hasattr(partition, "wal")
        with pytest.raises(TypeError):
            partition.insert_many([(1, 1, {"k": 1})], log=False)
        assert partition.count_keys() == 0

    def test_node_controller_has_no_wal(self):
        cluster = SimulatedCluster(config(), strategy="dynahash")
        assert all(not hasattr(node, "wal") for node in cluster.nodes)


class TestPerRowWriteChainRemoved:
    """Deletes land as tombstone rows of ``StoragePartition.insert_many``; the
    per-row write and read twins above ``LSMTree`` are gone, with the unused
    partitioner module and config helpers."""

    @pytest.mark.parametrize(
        "owner, names",
        [
            ("repro.cluster.partition:StoragePartition", ["insert", "delete"]),
            (
                "repro.bucketed.bucketed_lsm:BucketedLSMTree",
                [
                    "insert",
                    "upsert",
                    "delete",
                    "apply_entry",
                    "get",
                    "get_entry",
                    "__contains__",
                    "owns_key",
                ],
            ),
            (
                "repro.bucketed.bucket:Bucket",
                ["insert", "delete", "apply_entry", "get", "get_entry"],
            ),
            ("repro.lsm.tree:LSMTree", ["apply_entry", "upsert"]),
            ("repro.rebalance.concurrency:LogReplicator", ["delete"]),
            ("repro.common.config:LSMConfig", ["scaled"]),
            ("repro.common.config:BucketingConfig", ["scaled"]),
            ("repro.common.config:ClusterConfig", ["scaled", "with_nodes"]),
        ],
    )
    def test_methods_are_gone(self, owner, names):
        import importlib

        module, cls = owner.split(":")
        owner_class = getattr(importlib.import_module(module), cls)
        assert [name for name in names if hasattr(owner_class, name)] == []

    def test_partitioners_module_does_not_import(self):
        import importlib

        import repro.hashing

        with pytest.raises(ImportError):
            importlib.import_module("repro.hashing.partitioners")
        assert not hasattr(repro.hashing, "HashModuloPartitioner")

    def test_bucketed_tree_takes_no_merge_policy_factory(self):
        from repro.bucketed import BucketedLSMTree
        from repro.hashing.bucket_id import ROOT_BUCKET

        with pytest.raises(TypeError):
            BucketedLSMTree("p", 0, [ROOT_BUCKET], merge_policy_factory=lambda: None)


class TestNoDeprecationWarnings:
    def test_api_verbs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                orders = db.create_dataset("orders", primary_key="o_orderkey")
                orders.insert(order_rows(50))
                assert orders.get(7) is not None
                orders.delete([7])
                assert orders.count() == 49

    def test_tpch_load_path_does_not_warn(self):
        from repro.api import load_tpch

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                load = load_tpch(db, scale_factor=0.0002, tables=("region", "nation"))
                assert load.total_rows > 0

    def test_traffic_engine_paths_do_not_warn(self):
        from repro.api import run_workload

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                report = run_workload(db, initial_records=40, default_ops=30)
                assert report.total_ops == 30

    def test_figure_load_path_does_not_warn(self):
        """What the paper's figure specs run: a Database plus load_tpch."""
        from repro.api import load_tpch

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash", workload_scale=5e5) as db:
                load = load_tpch(db, scale_factor=0.0004, tables=("region",))
                assert load.total_rows > 0
                assert db.cluster.record_count("region") == load.total_rows

    def test_autopilot_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(config(), strategy="dynahash") as db:
                db.create_dataset("orders", primary_key="o_orderkey")
                pilot = db.autopilot(policy="threshold", check_every_ops=5)
                orders = db.dataset("orders")
                orders.insert(order_rows(30))
                for key in range(20):
                    orders.get(key)
                pilot.stop()
