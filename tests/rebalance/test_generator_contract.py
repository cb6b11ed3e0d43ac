"""The public generator contract of the rebalance protocol.

``RebalanceOperation.run_steps`` is the protocol's one implementation and
``run`` is that generator drained, with one pricing: every bucket move is its
own priced segment, whoever consumes the generator.  These tests pin that from
the outside, on twin clusters: same events, same final state, same reported
seconds, same fault positions, and segment seconds that add up to the report.
"""

import hashlib
import json

import pytest

from repro.api import Database, WorkloadDriver, WorkloadSpec
from repro.common.config import BucketingConfig, ClusterConfig, LSMConfig
from repro.common.errors import FaultInjected
from repro.cluster.controller import SimulatedCluster
from repro.rebalance.operation import (
    FAULT_SITES,
    ConcurrentWriteLoad,
    FaultInjector,
    RebalanceOperation,
)
from repro.rebalance.recovery import RebalanceRecoveryManager
from repro.rebalance.strategies import DynaHashStrategy, strategy_by_name
from repro.sim import drain
from repro.workload import Phase, Schedule

STRATEGIES = ("dynahash", "statichash", "consistenthash")
ROWS = 600


def rows(count, start=0, tag="v"):
    return [{"k": key, "payload": f"{tag}{key:06d}" + "x" * 40} for key in range(start, start + count)]


def concurrent_load():
    """Updates of existing keys plus fresh inserts, as the driver would send."""
    return ConcurrentWriteLoad(rows=rows(40, start=100, tag="u") + rows(40, start=ROWS, tag="n"))


def build_cluster(strategy_name):
    options = {"initial_buckets_per_partition": 4} if strategy_name == "dynahash" else {"total_buckets": 32}
    config = ClusterConfig(
        num_nodes=3,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=16 * 1024),
        bucketing=BucketingConfig(max_bucket_bytes=1 << 30),
    )
    cluster = SimulatedCluster(config, strategy=strategy_by_name(strategy_name, **options))
    cluster.create_dataset("t", "k")
    cluster.feed("t").ingest(rows(ROWS))
    return cluster


def make_operation(cluster, direction, fault_sites=()):
    """What ``rebalance_cluster_steps`` builds for one dataset, minus the resize bookkeeping."""
    target_nodes = cluster.num_nodes + (1 if direction == "add" else -1)
    if direction == "add":
        cluster.provision_nodes(target_nodes)
    target = [pid for node in cluster.nodes[:target_nodes] for pid in node.partition_ids]
    return RebalanceOperation(
        cluster,
        "t",
        target,
        strategy_name=cluster.strategy.name,
        plan=cluster.strategy.plan_for(cluster, "t", target),
        fault_injector=FaultInjector(fault_sites),
    )


def record_events(cluster):
    """Every event as ``(name, sorted payload keys)``, in emission order."""
    log = []
    cluster.events.on("*", lambda event: log.append((event.name, sorted(event.payload))))
    return log


def fingerprint(cluster):
    runtime = cluster.dataset("t")
    entries = sorted(
        (entry.key, entry.value)
        for partition in runtime.partitions.values()
        for entry in partition.scan_primary()
    )
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def directory(cluster):
    return sorted(cluster.dataset("t").global_directory.assignments.items())


def wal_types(cluster):
    return [record.record_type for record in cluster.cc.metadata_wal.records(durable_only=True)]


def matrix(test):
    """strategy x add/remove x with/without concurrent rows."""
    for name, values in (
        ("with_writes", [False, True]),
        ("direction", ["add", "remove"]),
        ("strategy", STRATEGIES),
    ):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@matrix
def test_segment_seconds_add_up_to_the_report(strategy, direction, with_writes):
    cluster = build_cluster(strategy)
    operation = make_operation(cluster, direction)
    segments = []
    steps = operation.run_steps(concurrent_load() if with_writes else None)
    try:
        while True:
            segments.append(next(steps))
    except StopIteration as done:
        report = done.value
    assert report.committed and report.buckets_moved > 0
    assert sum(segment.seconds for segment in segments) == pytest.approx(
        report.simulated_seconds, rel=1e-12
    )
    kinds = [segment.kind for segment in segments]
    assert kinds == (
        ["initialization"] + ["move"] * report.buckets_moved + ["concurrent_writes", "finalization"]
    )
    moves = [segment for segment in segments if segment.kind == "move"]
    assert [segment.remaining for segment in moves] == list(range(len(moves) - 1, -1, -1))


@matrix
def test_run_and_drained_run_steps_are_the_same_protocol(strategy, direction, with_writes):
    outcomes = []
    for entry_point in ("run", "run_steps"):
        cluster = build_cluster(strategy)
        operation = make_operation(cluster, direction)
        events = record_events(cluster)
        load = concurrent_load() if with_writes else None
        report = operation.run(load) if entry_point == "run" else drain(operation.run_steps(load))
        assert report.committed
        assert report.concurrent_writes_applied == (80 if with_writes else 0)
        outcomes.append(
            (
                events,
                fingerprint(cluster),
                directory(cluster),
                (report.buckets_moved, report.records_moved, report.bytes_shipped),
                (report.simulated_seconds, report.phase_seconds),
            )
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("site", FAULT_SITES)
def test_fault_sites_fire_at_the_same_position_and_recover_to_the_same_state(site):
    outcomes = []
    for entry_point in ("run", "run_steps"):
        cluster = build_cluster("dynahash")
        operation = make_operation(cluster, "remove", fault_sites=[site])
        events = record_events(cluster)
        with pytest.raises(FaultInjected) as raised:
            if entry_point == "run":
                operation.run(concurrent_load())
            else:
                drain(operation.run_steps(concurrent_load()))
        assert raised.value.site == site
        position = (list(events), wal_types(cluster))
        actions = [outcome.action for outcome in RebalanceRecoveryManager(cluster).recover()]
        runtime = cluster.dataset("t")
        assert not runtime.blocked
        assert all(not partition.pending_received for partition in runtime.partitions.values())
        outcomes.append((position, actions, fingerprint(cluster), directory(cluster)))
    assert outcomes[0] == outcomes[1]


class TaggingStrategy(DynaHashStrategy):
    """Overrides the one rebalance hook: counts calls and tags the report."""

    name = "Tagging"

    def __init__(self):
        super().__init__(initial_buckets_per_partition=4)
        self.calls = 0

    def rebalance_cluster_steps(self, cluster, target_nodes, **kwargs):
        self.calls += 1
        report = yield from super().rebalance_cluster_steps(cluster, target_nodes, **kwargs)
        report.strategy = "Tagging(overridden)"
        return report


@pytest.mark.parametrize("entry_point", ["rebalance", "rebalance_steps"])
def test_strategy_generator_override_is_honoured_by_both_entry_points(entry_point):
    strategy = TaggingStrategy()
    with Database(ClusterConfig(num_nodes=3, partitions_per_node=2), strategy=strategy) as db:
        db.create_dataset("t", primary_key="k").insert(rows(300))
        before = fingerprint(db.cluster)
        if entry_point == "rebalance":
            report = db.rebalance(remove=1)
        else:
            report = drain(db.rebalance_steps(remove=1))
        assert strategy.calls == 1
        assert report.strategy == "Tagging(overridden)"
        assert report.committed and db.num_nodes == 2
        assert fingerprint(db.cluster) == before


class TestOnePricing:
    """A drained resize, a scheduled one and the yielded segments agree on time."""

    def session(self):
        """A fresh, identically loaded session and the driver that loaded it."""
        db = Database(
            ClusterConfig(num_nodes=3, partitions_per_node=2),
            strategy=DynaHashStrategy(initial_buckets_per_partition=4),
        )
        spec = WorkloadSpec(
            dataset="t",
            initial_records=ROWS,
            mix="C",  # reads only: the phase replicates no writes
            schedule=Schedule((Phase(name="resize", ops=120, rebalance={"add": 1}),)),
        )
        driver = WorkloadDriver(db, spec)
        driver.prepare()
        return db, driver

    @staticmethod
    def timing(report):
        (dataset,) = report.dataset_reports
        return report.simulated_seconds, dataset.phase_seconds

    def test_drained_scheduled_and_yielded_seconds_agree(self):
        db, _ = self.session()
        drained = db.rebalance(add=1)
        db.close()
        assert drained.committed and drained.total_records_moved > 0

        db, driver = self.session()
        phase = driver.run().phase("resize")
        db.close()
        assert phase.reads == phase.ops and phase.updates == 0
        assert self.timing(phase.rebalance_report) == self.timing(drained)

        db, _ = self.session()
        steps = db.rebalance_steps(add=1)
        segments = []
        try:
            while True:
                segments.append(next(steps))
        except StopIteration as done:
            yielded = done.value
        db.close()
        assert self.timing(yielded) == self.timing(drained)
        assert sum(segment.seconds for segment in segments) == pytest.approx(
            drained.simulated_seconds, rel=1e-12
        )
