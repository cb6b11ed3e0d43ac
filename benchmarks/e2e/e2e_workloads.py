"""The six end-to-end workloads: sizes, set-up, timed section, oracle.

Every workload is a closed loop with one client in one thread.  A *round* is
``setup`` (cluster build + preload, reported as ``setup_s``), then ``timed``
(the section the end-to-end metrics measure), then ``check`` (the oracle,
untimed).  Rounds of one run use the same seed, so they do identical work and
their median isolates host noise.

Sizes are fixed here and never auto-calibrated: ``FULL`` is sized so one
timed section takes roughly 1-2 s on a 2-core box (the driver's run-time cap
divides ~25 s per run between set-up and repeated rounds), ``SMOKE`` is the
warm-up / smoke-test preset.

Two cluster shapes (4 nodes x 2 partitions, ``strategy="dynahash"``, 64-byte
payloads, zipfian keys unless a phase says otherwise):

* *fits*  — default ``LSMConfig`` (512 MiB memory component): no flush, no
  split, everything stays in the memory components;
* *split* — 32 KiB memory component, 48 KiB bucket cap (the config every
  committed scenario uses): data is far larger than both, so buckets split
  and carry reference components.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.api import (
    KIB,
    BucketingConfig,
    ClusterConfig,
    ClusterRebalanceReport,
    Database,
    LSMConfig,
    Phase,
    QueryReport,
    ReproError,
    Schedule,
    WorkloadDriver,
    WorkloadReport,
    WorkloadSpec,
    load_tpch,
    q1_plan,
    q3_plan,
    q6_plan,
    tpch_query_spec,
)

# The interleaved engine's scheduler is not re-exported by repro.api; the
# scenario runner builds it the same way for ``concurrency = "interleaved"``.
from repro.sim import EventScheduler

DATASET = "traffic"
PRIMARY_KEY = "k"
PAYLOAD_BYTES = 64
TPCH_QUERY_NAMES = tuple(f"q{number}" for number in range(1, 23))


def cluster_config(split: bool, seed: int) -> ClusterConfig:
    """The *fits* or *split* cluster shape described in the module docstring."""
    if not split:
        return ClusterConfig(num_nodes=4, partitions_per_node=2, seed=seed)
    return ClusterConfig(
        num_nodes=4,
        partitions_per_node=2,
        seed=seed,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
    )


def expected_row(key: int) -> Dict[str, Any]:
    """The row the workload driver writes for ``key`` (its deterministic payload)."""
    payload = f"{key:010d}"
    return {PRIMARY_KEY: key, "payload": payload + "x" * (PAYLOAD_BYTES - len(payload))}


@dataclass
class RoundState:
    """What one round built, did and observed."""

    db: Database
    sizes: Mapping[str, int]
    driver: Optional[WorkloadDriver] = None
    report: Optional[WorkloadReport] = None
    #: Rows the timed section will write (``ingest_split``).
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Units of work the timed section attempted (ops, rows or queries).
    attempted: int = 0
    #: Units that failed inside the timed section (reads of a live key that
    #: found nothing); the oracle adds its own mismatches on top.
    failed: int = 0
    rebalances: List[ClusterRebalanceReport] = field(default_factory=list)
    queries: List[QueryReport] = field(default_factory=list)
    #: q1/q6/q3 answers per evaluation point (``tpch_queries``).
    answers: List[Any] = field(default_factory=list)
    #: Row count per dataset the oracle expects after the timed section.
    expected_counts: Dict[str, int] = field(default_factory=dict)
    tpch_load_s: float = 0.0
    tpch_rows_loaded: int = 0


# ------------------------------------------------------------------ oracles


def check_rows(state: RoundState, keys: int) -> List[str]:
    """Every key in ``[0, keys)`` reads back with the driver's payload."""
    dataset = state.db.dataset(DATASET)
    failures: List[str] = []
    for low in range(0, keys, 4096):
        chunk = range(low, min(keys, low + 4096))
        for key, record in zip(chunk, dataset.get_many(list(chunk)), strict=True):
            if record != expected_row(key):
                failures.append(f"key {key}: read {record!r}")
    return failures


def check_counts(state: RoundState) -> List[str]:
    failures = []
    for name, expected in state.expected_counts.items():
        found = state.db.dataset(name).count()
        if found != expected:
            failures.append(f"dataset {name!r}: count() is {found}, expected {expected}")
    return failures


def check_directories(state: RoundState, nodes: int = 4) -> List[str]:
    """CC directory agrees with the NCs' local directories, which tile the hash space.

    Splits happen locally without telling the CC, so between rebalances the
    NC buckets may be *finer* than the CC's: each local bucket must sit under
    a CC bucket routed to the same partition, and the union of the local
    directories must be disjoint and covering (``from_local_directories``
    validates the tiling and raises otherwise).
    """
    failures = []
    if state.db.num_nodes != nodes:
        failures.append(f"cluster has {state.db.num_nodes} nodes, expected {nodes}")
    for name in state.db.dataset_names():
        runtime = state.db.cluster.dataset(name)
        directory = runtime.global_directory
        try:
            rebuilt = type(directory).from_local_directories(
                {pid: part.primary.directory for pid, part in runtime.partitions.items()}
            )
        except ReproError as error:  # DirectoryError: overlap or gap
            failures.append(f"dataset {name!r}: local directories do not tile: {error}")
            continue
        for bucket, partition in rebuilt.assignments.items():
            cc_bucket, cc_partition = directory.lookup_hash(bucket.prefix)
            if cc_partition != partition or not cc_bucket.is_ancestor_of(bucket):
                failures.append(
                    f"dataset {name!r}: NC bucket {bucket} on partition {partition} but "
                    f"CC routes it to {cc_bucket} on partition {cc_partition}"
                )
    return failures


def _close(left: Any, right: Any) -> bool:
    """Structural equality with floats compared to 1e-9 relative.

    Aggregates sum floats in partition order, which a rebalance changes, so
    answers agree to rounding rather than bit for bit.
    """
    if isinstance(left, float) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(left, Mapping):
        return left.keys() == right.keys() and all(_close(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _close(a, b) for a, b in zip(left, right, strict=True)
        )
    return left == right


# ---------------------------------------------------------------- workloads


class YcsbWorkload:
    """A steady YCSB mix through ``WorkloadDriver`` (the three ``ycsb_*``)."""

    unit = "op"

    def __init__(
        self,
        name: str,
        why: str,
        *,
        split: bool,
        mix: str,
        preload_batch: int,
        full: Mapping[str, int],
        smoke: Mapping[str, int],
    ) -> None:
        self.name = name
        self.why = why
        self.split = split
        self.mix = mix
        self.preload_batch = preload_batch
        self.sizes = {"full": dict(full), "smoke": dict(smoke)}

    def setup(self, sizes: Mapping[str, int], seed: int) -> RoundState:
        db = Database(cluster_config(self.split, seed), strategy="dynahash")
        spec = WorkloadSpec(
            dataset=DATASET,
            primary_key=PRIMARY_KEY,
            initial_records=sizes["rows"],
            payload_bytes=PAYLOAD_BYTES,
            mix=self.mix,
            default_ops=sizes["ops"],
            batch_size=self.preload_batch,
            batch_jitter=0.0,
        )
        driver = WorkloadDriver(db, spec)
        driver.prepare()
        expected = {DATASET: sizes["rows"]}
        return RoundState(db=db, sizes=sizes, driver=driver, expected_counts=expected)

    def timed(self, state: RoundState) -> None:
        state.report = state.driver.run()
        state.attempted = state.report.total_ops
        state.failed = sum(phase.reads_missing for phase in state.report.phases)

    def check(self, state: RoundState) -> List[str]:
        failures = check_counts(state) + check_rows(state, state.driver.next_key)
        return failures + check_directories(state)


class IngestSplitWorkload:
    """One bulk ``insert`` (a feed with 2 000-row maintenance rounds): Fig. 6."""

    name = "ingest_split"
    unit = "row"
    why = (
        "bulk ingest past the bucket cap (Fig. 6): feed/partition/bucketed/LSM layers with "
        "flushes, merges and splits, so a single-row write gain that costs bulk ingest shows"
    )
    sizes = {"full": {"rows": 24_000}, "smoke": {"rows": 600}}

    def setup(self, sizes: Mapping[str, int], seed: int) -> RoundState:
        db = Database(cluster_config(True, seed), strategy="dynahash")
        db.create_dataset(DATASET, primary_key=PRIMARY_KEY)
        keys = list(range(sizes["rows"]))
        random.Random(seed).shuffle(keys)
        rows = [expected_row(key) for key in keys]
        return RoundState(db=db, sizes=sizes, rows=rows, expected_counts={DATASET: len(rows)})

    def timed(self, state: RoundState) -> None:
        ingest = state.db.dataset(DATASET).insert(state.rows, batch_size=2000)
        state.attempted = len(state.rows)
        state.failed = len(state.rows) - ingest.records

    def check(self, state: RoundState) -> List[str]:
        failures = check_counts(state) + check_rows(state, len(state.rows))
        return failures + check_directories(state)


class ElasticStormWorkload:
    """Add/remove-node cycles under traffic on the interleaved engine: Figs. 7a-c."""

    name = "elastic_storm"
    unit = "op"
    why = (
        "scale-out/in cycles under hotspot writes (Figs. 7a-c): rebalance plan/move/2PC, "
        "concurrent-write replication and scheduler dispatch dominate; no plain feed writes"
    )
    sizes = {
        "full": {"rows": 16_000, "cycles": 12, "warm": 2_000, "storm": 600, "reads": 800},
        "smoke": {"rows": 800, "cycles": 1, "warm": 100, "storm": 30, "reads": 40},
    }

    def setup(self, sizes: Mapping[str, int], seed: int) -> RoundState:
        db = Database(cluster_config(True, seed), strategy="dynahash")
        phases = [Phase("warm", sizes["warm"], mix="C")]
        for cycle in range(sizes["cycles"]):
            phases += [
                Phase(f"add{cycle}", sizes["storm"], mix="A", keys="hotspot", rebalance={"add": 1}),
                Phase(f"reads{cycle}", sizes["reads"], mix="C"),
                Phase(
                    f"remove{cycle}",
                    sizes["storm"],
                    mix="A",
                    keys="hotspot",
                    rebalance={"remove": 1},
                ),
            ]
        spec = WorkloadSpec(
            dataset=DATASET,
            primary_key=PRIMARY_KEY,
            initial_records=sizes["rows"],
            payload_bytes=PAYLOAD_BYTES,
            schedule=Schedule(tuple(phases)),
            batch_size=2000,
            batch_jitter=0.0,
        )
        driver = WorkloadDriver(db, spec, scheduler=EventScheduler(db.metrics.clock))
        driver.prepare()
        expected = {DATASET: sizes["rows"]}
        return RoundState(db=db, sizes=sizes, driver=driver, expected_counts=expected)

    def timed(self, state: RoundState) -> None:
        state.report = state.driver.run()
        state.attempted = state.report.total_ops
        # Every read, mid-rebalance ones included, targets a live key.
        state.failed = sum(phase.reads_missing for phase in state.report.phases)
        state.rebalances = [
            phase.rebalance_report
            for phase in state.report.phases
            if phase.rebalance_report is not None
        ]

    def check(self, state: RoundState) -> List[str]:
        failures = [
            f"rebalance {index} did not commit"
            for index, report in enumerate(state.rebalances)
            if not report.committed
        ]
        failures += check_counts(state) + check_rows(state, state.driver.next_key)
        return failures + check_directories(state)


class TpchQueriesWorkload:
    """All 22 query specs + the real q1/q6/q3 plans around a remove and an add: Figs. 8-9."""

    name = "tpch_queries"
    unit = "query"
    why = (
        "TPC-H query passes before/after a node remove and add (Figs. 8-9): query operators and "
        "bucketed/secondary-index scans dominate, plus the run-to-completion db.rebalance path"
    )
    sizes = {
        "full": {"scale_factor_1e6": 500, "plan_repeats": 1},
        "smoke": {"scale_factor_1e6": 100, "plan_repeats": 1},
    }

    def setup(self, sizes: Mapping[str, int], seed: int) -> RoundState:
        db = Database(cluster_config(True, seed), strategy="dynahash", workload_scale=5e5)
        started = time.perf_counter()
        load = load_tpch(db, scale_factor=sizes["scale_factor_1e6"] / 1e6)
        # Counts as stored (the tiny generator repeats some partsupp keys);
        # the oracle holds the two rebalances to leaving them unchanged.
        counts = {name: db.dataset(name).count() for name in load.row_counts}
        state = RoundState(db=db, sizes=sizes, expected_counts=counts)
        state.tpch_load_s = time.perf_counter() - started
        state.tpch_rows_loaded = load.total_rows
        state.attempted = 2 * (len(TPCH_QUERY_NAMES) + 3 * sizes["plan_repeats"])
        return state

    @staticmethod
    def _plans(state: RoundState) -> List[Any]:
        answers = []
        for name, plan in (("q1", q1_plan()), ("q6", q6_plan()), ("q3", q3_plan())):
            result, report = state.db.execute(name, plan)
            state.queries.append(report)
            answers.append(result)
        return answers

    def _block(self, state: RoundState) -> None:
        for name in TPCH_QUERY_NAMES:
            state.queries.append(state.db.execute_spec(tpch_query_spec(name)))
        for _ in range(state.sizes["plan_repeats"]):
            answers = self._plans(state)
        state.answers.append(answers)

    def timed(self, state: RoundState) -> None:
        self._block(state)
        state.rebalances.append(state.db.rebalance(remove=1))
        self._block(state)
        state.rebalances.append(state.db.rebalance(add=1))

    def check(self, state: RoundState) -> List[str]:
        failures = [
            f"rebalance {index} did not commit"
            for index, report in enumerate(state.rebalances)
            if not report.committed
        ]
        state.answers.append(self._plans(state))
        before = state.answers[0]
        for label, answers in zip(("node remove", "node add"), state.answers[1:], strict=True):
            for name, left, right in zip(("q1", "q6", "q3"), before, answers, strict=True):
                if not _close(left, right):
                    failures.append(f"{name} answer changed across the {label}")
        return failures + check_counts(state) + check_directories(state)


WORKLOADS = {
    workload.name: workload
    for workload in (
        YcsbWorkload(
            "ycsb_c_fits",
            "read-only mix on in-memory data: driver draws, get_many, routing, LSM lookup, event "
            "bus and metrics do all the work; the control every write-path change must not move",
            split=False,
            mix="C",
            preload_batch=2000,
            full={"rows": 20_000, "ops": 150_000},
            smoke={"rows": 500, "ops": 3_000},
        ),
        YcsbWorkload(
            "ycsb_a_fits",
            "50% single-row upserts on data that fits: per-op maintain()/stats_snapshot() on all "
            "8 partitions dominates (the write cliff); bucketed/LSM restructuring does nothing",
            split=False,
            mix="A",
            preload_batch=2000,
            full={"rows": 20_000, "ops": 8_000},
            smoke={"rows": 500, "ops": 200},
        ),
        YcsbWorkload(
            "ycsb_a_split",
            "same verbs on a dataset that has split: reference components make size_bytes/"
            "_should_split/maybe_merge the whole cost, the state the paper's system is in",
            split=True,
            mix="A",
            preload_batch=32,
            full={"rows": 5_000, "ops": 100},
            smoke={"rows": 600, "ops": 6},
        ),
        IngestSplitWorkload(),
        ElasticStormWorkload(),
        TpchQueriesWorkload(),
    )
}
