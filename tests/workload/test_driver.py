"""The workload driver: execution through the API, determinism, rebalances."""

import pytest

from repro.api import (
    BucketingConfig,
    ClusterConfig,
    Database,
    KIB,
    LSMConfig,
    PHASE_REBALANCE,
    PHASE_STEADY,
    Phase,
    Schedule,
    WorkloadDriver,
    WorkloadSpec,
    steady_schedule,
)


def config(num_nodes=2):
    return ClusterConfig(
        num_nodes=num_nodes,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
        strategy="dynahash",
    )


def storm_schedule(warmup, steady, spike, ramp):
    """Uniform warmup, steady traffic, a hotspot spike over a one-node add, a ramp."""
    return Schedule(
        (
            Phase(name="warmup", ops=warmup, keys="uniform"),
            Phase(name="steady", ops=steady),
            Phase(name="spike", ops=spike, keys="hotspot", rebalance={"add": 1}),
            Phase(name="ramp", ops=ramp),
        )
    )


def small_spec(**overrides):
    options = {
        "dataset": "traffic",
        "initial_records": 120,
        "schedule": steady_schedule(60),
        "mix": "A",
        "keys": "zipfian",
    }
    options.update(overrides)
    return WorkloadSpec(**options)


class TestPrepare:
    def test_creates_and_preloads_the_dataset(self):
        with Database(config()) as db:
            driver = WorkloadDriver(db, small_spec())
            driver.prepare()
            assert "traffic" in db.dataset_names()
            assert db["traffic"].count() == 120
            assert driver.next_key == 120

    def test_prepare_is_idempotent(self):
        with Database(config()) as db:
            driver = WorkloadDriver(db, small_spec())
            driver.prepare()
            driver.prepare()
            assert db["traffic"].count() == 120

    def test_create_dataset_false_requires_existing(self):
        with Database(config()) as db:
            driver = WorkloadDriver(db, small_spec(create_dataset=False))
            with pytest.raises(ValueError, match="does not exist"):
                driver.prepare()

    def test_preload_uses_jittered_feed_batches_without_polluting_op_metrics(self):
        with Database(config()) as db:
            WorkloadDriver(db, small_spec(batch_size=16, batch_jitter=0.25)).prepare()
            # Preload goes through the raw feed (ingest.* events), not the
            # instrumented verbs: bulk-load batches must not appear in the
            # steady-phase write histograms the Fig 7c comparison reads.
            assert db.metrics.counter("ingest.records").value == 120
            assert db.metrics.counter("ops.insert").value == 0
            assert db.metrics.write_latency("steady").count == 0


class TestSteadyTraffic:
    def test_op_counts_match_the_phase(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, small_spec()).run()
            (steady,) = report.phases
            assert steady.ops == 60
            assert steady.reads + steady.inserts + steady.updates == 60
            assert report.total_ops == 60
            assert report.snapshot is not None

    def test_all_five_ops_execute(self):
        from repro.api import OperationMix

        spec = small_spec(
            mix=OperationMix(read=0.3, insert=0.2, update=0.2, delete=0.15, scan=0.15),
            schedule=steady_schedule(120),
        )
        with Database(config()) as db:
            report = WorkloadDriver(db, spec).run()
            (steady,) = report.phases
            assert steady.reads > 0
            assert steady.inserts > 0
            assert steady.updates > 0
            assert steady.deletes > 0
            assert steady.scans > 0
            assert steady.scan_rows > 0

    def test_read_latest_workload_finds_its_reads(self):
        """YCSB D ('read what was just written') must not probe keys still
        sitting in the driver's client-side insert buffer."""
        spec = small_spec(mix="D", keys="latest", schedule=steady_schedule(300))
        with Database(config()) as db:
            report = WorkloadDriver(db, spec).run()
            (steady,) = report.phases
            assert steady.inserts > 0
            assert steady.reads > 0
            assert steady.reads_found == steady.reads

    def test_reads_mostly_hit_the_preloaded_keyspace(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, small_spec(mix="C")).run()
            (steady,) = report.phases
            assert steady.reads == 60
            # Zipfian draws stay within the preloaded keyspace, so every read
            # finds its record.
            assert steady.reads_found == 60
            assert steady.reads_missing == 0

    def test_max_seconds_caps_a_phase(self):
        spec = small_spec(
            schedule=Schedule((Phase(name="capped", ops=10_000, max_seconds=0.05),))
        )
        with Database(config()) as db:
            report = WorkloadDriver(db, spec).run()
            assert report.phases[0].ops < 10_000
            assert report.phases[0].simulated_seconds >= 0.05

    def test_metrics_land_in_the_registry(self):
        with Database(config()) as db:
            WorkloadDriver(db, small_spec()).run()
            assert db.metrics.counter("ops.total").value > 0
            assert db.metrics.histogram("read", PHASE_STEADY).count > 0
            assert db.metrics.clock.now > 0


class TestDeterminism:
    def test_same_seed_produces_identical_snapshots(self):
        """The acceptance contract: same seed => identical metric snapshots."""

        def run_once():
            with Database(config()) as db:
                return WorkloadDriver(
                    db,
                    small_spec(
                        schedule=storm_schedule(
                            warmup=20, steady=60, spike=60, ramp=20
                        )
                    ),
                ).run().snapshot

        assert run_once() == run_once()

    def test_different_seeds_diverge(self):
        def run_once(seed):
            with Database(config()) as db:
                return WorkloadDriver(db, small_spec(), seed=seed).run().snapshot

        assert run_once(1) != run_once(2)

    def test_seed_defaults_to_the_cluster_config(self):
        with Database(config()) as db:
            driver = WorkloadDriver(db, small_spec())
            assert driver.seed == db.config.seed

    def test_explicit_seed_and_report_seed(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, small_spec(), seed=99).run()
            assert report.seed == 99

    def test_back_to_back_runs_report_their_own_duration(self):
        with Database(config()) as db:
            first = WorkloadDriver(db, small_spec()).run()
            second = WorkloadDriver(db, small_spec(create_dataset=False)).run()
            # The second report covers only its own run, not the session total.
            assert second.simulated_seconds < db.metrics.clock.now
            assert first.simulated_seconds + second.simulated_seconds == (
                pytest.approx(db.metrics.clock.now)
            )

    def test_back_to_back_runs_scope_their_percentiles(self):
        with Database(config()) as db:
            first = WorkloadDriver(db, small_spec(mix="A")).run()
            assert first.write_p99_seconds  # the write-heavy run saw writes
            # A read-only second run on the same session must not inherit the
            # first run's write samples into its own percentile fields...
            second = WorkloadDriver(db, small_spec(mix="C", create_dataset=False)).run()
            assert second.write_p99_seconds == {}
            # ...even though the session registry keeps accumulating.
            assert db.metrics.write_latency(PHASE_STEADY).count > 0


class TestRebalancePhase:
    def storm(self):
        return small_spec(
            schedule=storm_schedule(warmup=20, steady=60, spike=80, ramp=20)
        )

    def test_spike_overlaps_the_resize(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, self.storm()).run()
            spike = report.phase("spike")
            assert spike.rebalance_report is not None
            assert spike.rebalance_report.new_nodes == 3
            assert db.num_nodes == 3

    def test_writes_are_tagged_rebalance_and_survive(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, self.storm()).run()
            snapshot = report.snapshot
            assert snapshot.histogram_count("update", PHASE_REBALANCE) > 0
            # Concurrent writes were applied, not lost: every preloaded key
            # is still readable after the resize.
            dataset = db["traffic"]
            assert dataset.count() >= 120
            for key in (0, 1, 59, 119):
                assert dataset.get(key) is not None

    def test_reads_interleave_with_protocol_phases(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, self.storm()).run()
            assert report.snapshot.histogram_count("read", PHASE_REBALANCE) > 0
            spike = report.phase("spike")
            assert spike.reads > 0
            assert spike.reads_found == spike.reads  # old directory still serves

    def test_write_p99_reported_per_phase(self):
        with Database(config()) as db:
            report = WorkloadDriver(db, self.storm()).run()
            assert PHASE_STEADY in report.write_p99_seconds
            assert PHASE_REBALANCE in report.write_p99_seconds
            # The mid-rehash replication round trip shows up in the tail.
            assert (
                report.write_p99_seconds[PHASE_REBALANCE]
                >= report.write_p99_seconds[PHASE_STEADY]
            )

    def test_summary_mentions_phases(self):
        with Database(config()) as db:
            text = WorkloadDriver(db, self.storm()).run().summary()
            for name in ("warmup", "steady", "spike", "ramp", "write p99"):
                assert name in text


class TestSpecValidation:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(initial_records=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(batch_size=0)
        with pytest.raises(ValueError):
            WorkloadSpec(batch_jitter=1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(scan_span=0)

    def test_spec_and_overrides_are_exclusive(self):
        with Database(config()) as db:
            with pytest.raises(ValueError, match="not both"):
                WorkloadDriver(db, small_spec(), initial_records=5)

    def test_overrides_build_a_spec(self):
        with Database(config()) as db:
            driver = WorkloadDriver(db, initial_records=10, default_ops=5)
            report = driver.run()
            assert report.spec.initial_records == 10
            assert report.total_ops == 5
