"""Per-layer host-time tracing, recorded from outside the program.

The traced pass replaces the public methods listed in :data:`WRAPPED` with
wrappers (class-attribute replacement, undone on exit) that record one span
per call — name, start, end, busy time and parent span — into in-memory
arrays.  Nothing under ``src/`` knows it is being measured.

*Busy* time is the time the interpreter spent inside the call.  For a plain
call it equals ``end - start``; for a call that returns a generator or
iterator (``Dataset.scan``, ``rebalance_steps``, ``QueryContext.scan`` ...)
it is the sum over the resumes, so time the consumer spends between two
``next()`` calls is charged to the consumer, not to the producer.  A span's
*self* time is its busy time minus its children's busy time; every span
below the root has exactly one parent, so the layers' self times sum to the
root span.

Known gap: a function bound by ``from x import f`` at import time (e.g.
``hash_key``) cannot be replaced from outside, so its time stays in the
caller's self time.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import Database, Dataset, EventBus, MetricsRegistry, WorkloadDriver
from repro.bucketed.bucketed_lsm import BucketedLSMTree
from repro.cluster.cost_model import CostModel
from repro.cluster.feed import DataFeed
from repro.cluster.partition import StoragePartition
from repro.hashing.extendible import GlobalDirectory
from repro.lsm.component import ReferenceDiskComponent
from repro.lsm.tree import LSMTree
from repro.query.executor import ClusterQueryExecutor, QueryContext
from repro.rebalance.operation import RebalanceOperation
from repro.sim import EventScheduler

ROOT = "workload.root"

Hook = Callable[[Dict[str, float], Tuple[Any, ...], Any], None]


def _feed_hook(counters: Dict[str, float], args: Tuple[Any, ...], report: Any) -> None:
    counters["feed.rows"] += report.records
    counters["feed.bytes"] += report.bytes_ingested


def _maintain_hook(counters: Dict[str, float], args: Tuple[Any, ...], report: Any) -> None:
    if report.flush_bytes or report.merge_read_bytes or report.merge_write_bytes or report.splits:
        counters["maintain.useful"] += 1


def _heap_hook(counters: Dict[str, float], args: Tuple[Any, ...], result: Any) -> None:
    # The heap only grows inside spawn() and step(), so sampling after both
    # sees every high-water mark.
    counters["sim.heap_high_water"] = max(counters["sim.heap_high_water"], args[0].pending)
    if result is True:
        counters["sim.dispatches"] += 1


#: (class, attribute, span name, returns a lazy iterator, result hook); a span's
#: name id is its position in SPAN_NAMES, with the root span at 0.
WRAPPED: List[Tuple[type, str, str, bool, Optional[Hook]]] = [
    (WorkloadDriver, "run", "workload.run", False, None),
    (Dataset, "get", "api.get", False, None),
    (Dataset, "get_many", "api.get_many", False, None),
    (Dataset, "upsert", "api.upsert", False, None),
    (Dataset, "upsert_each", "api.upsert_each", False, None),
    (Dataset, "insert", "api.insert", False, None),
    (Dataset, "delete", "api.delete", False, None),
    (Dataset, "scan", "api.scan", True, None),
    (Database, "rebalance", "api.rebalance", False, None),
    (Database, "rebalance_steps", "api.rebalance_steps", True, None),
    (Database, "execute", "api.execute", False, None),
    (Database, "execute_spec", "api.execute_spec", False, None),
    (DataFeed, "ingest", "cluster.feed.ingest", False, _feed_hook),
    (StoragePartition, "maintain", "cluster.partition.maintain", False, _maintain_hook),
    (StoragePartition, "stats_snapshot", "cluster.partition.stats_snapshot", False, None),
    (StoragePartition, "lookup", "cluster.partition.lookup", False, None),
    (StoragePartition, "size_bytes", "cluster.partition.size_bytes", False, None),
    (CostModel, "ingest_work", "cluster.cost.ingest_work", False, None),
    (CostModel, "storage_work", "cluster.cost.storage_work", False, None),
    (CostModel, "movement_work", "cluster.cost.movement_work", False, None),
    (BucketedLSMTree, "maintain", "bucketed.maintain", False, None),
    (BucketedLSMTree, "scan", "bucketed.scan", True, None),
    (BucketedLSMTree, "split", "bucketed.split", False, None),
    (ReferenceDiskComponent, "size_bytes", "lsm.ref_size_bytes", False, None),
    (GlobalDirectory, "lookup_hash", "hashing.lookup_hash", False, None),
    (RebalanceOperation, "run", "rebalance.run", False, None),
    (RebalanceOperation, "run_steps", "rebalance.run_steps", True, None),
    (EventScheduler, "step", "sim.step", False, _heap_hook),
    (EventScheduler, "spawn", "sim.spawn", False, _heap_hook),
    (EventBus, "emit", "common.events.emit", False, None),
    (MetricsRegistry, "observe_op", "metrics.observe_op", False, None),
    (MetricsRegistry, "observe_op_batch", "metrics.observe_op_batch", False, None),
    (MetricsRegistry, "snapshot", "metrics.snapshot", False, None),
    (ClusterQueryExecutor, "execute_plan", "query.execute_plan", False, None),
    (ClusterQueryExecutor, "execute_spec", "query.execute_spec", False, None),
    (QueryContext, "scan", "query.scan", True, None),
    (QueryContext, "scan_index", "query.scan_index", True, None),
]

SPAN_NAMES = [ROOT] + [entry[2] for entry in WRAPPED]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Spans are only recorded while a root span is open; set-up and the
        #: oracle run through the wrappers at the cost of one attribute probe.
        self.active = False
        self.current = -1
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.busy = array("d")
        self.counters: Dict[str, float] = defaultdict(float)
        #: Every LSM tree built while installed, so storage counters survive
        #: bucket splits and moves (which drop the tree, and its stats, from
        #: the live structure).
        self.trees: List[LSMTree] = []
        #: Storage work done under the root span (see :meth:`run_root`).
        self.storage: Dict[str, int] = {}
        self._originals: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _open(self, name_id: int, started: float) -> int:
        index = len(self.parents)
        self.name_ids.append(name_id)
        self.parents.append(self.current)
        self.starts.append(started)
        self.ends.append(started)
        self.busy.append(0.0)
        self.current = index
        return index

    def _leave(self, index: int, parent: int, started: float) -> None:
        ended = time.perf_counter()
        self.busy[index] += ended - started
        self.ends[index] = ended
        self.current = parent

    def _resume(self, inner: Iterator[Any], index: int) -> Any:
        """Drive ``inner``, charging each resume to span ``index``."""
        while True:
            parent = self.current
            self.current = index
            started = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration as stop:
                return stop.value
            finally:
                self._leave(index, parent, started)
            yield item

    def _wrap(self, function: Callable[..., Any], name_id: int, lazy: bool, hook: Optional[Hook]):
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return function(*args, **kwargs)
            parent = self.current
            started = time.perf_counter()
            index = self._open(name_id, started)
            try:
                result = function(*args, **kwargs)
            finally:
                self._leave(index, parent, started)
            if hook is not None:
                hook(self.counters, args, result)
            return self._resume(result, index) if lazy else result

        return traced

    # ------------------------------------------------------- install / remove

    def __enter__(self) -> "SpanRecorder":
        for name_id, (cls, attribute, _, lazy, hook) in enumerate(WRAPPED, start=1):
            original = cls.__dict__[attribute]
            self._originals.append((cls, attribute, original))
            if isinstance(original, property):
                wrapper: Any = property(self._wrap(original.fget, name_id, lazy, hook))
            else:
                wrapper = self._wrap(original, name_id, lazy, hook)
            setattr(cls, attribute, wrapper)
        tree_init = LSMTree.__init__
        self._originals.append((LSMTree, "__init__", tree_init))
        trees = self.trees

        def registering_init(tree: LSMTree, *args: Any, **kwargs: Any) -> None:
            tree_init(tree, *args, **kwargs)
            trees.append(tree)

        LSMTree.__init__ = registering_init  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, attribute, original in reversed(self._originals):
            setattr(cls, attribute, original)
        self._originals.clear()

    # ------------------------------------------------------------------ root

    def run_root(self, timed: Callable[[], None]) -> int:
        """Run ``timed`` under the root span; returns the root's index."""
        before = self._storage_totals()
        self.active = True
        started = time.perf_counter()
        root = self._open(0, started)
        try:
            timed()
        finally:
            self._leave(root, -1, started)
            self.active = False
        after = self._storage_totals()
        self.storage = {name: after[name] - before[name] for name in after}
        return root

    def _storage_totals(self) -> Dict[str, int]:
        """Storage counters summed over every tree seen so far."""
        fields = (
            "flush_count",
            "merge_count",
            "bytes_flushed",
            "bytes_merged_written",
            "components_opened",
            "bloom_negative_skips",
            "records_read",
        )
        return {name: sum(getattr(tree.stats, name) for tree in self.trees) for name in fields}

    # -------------------------------------------------------------- analysis

    def layer_metrics(self, root: int, state: Any) -> Dict[str, float]:
        """The per-layer metrics of one traced round, by their BENCHMARK.json names.

        ``state`` is the round's ``RoundState``.  The ``*self_s`` metrics
        partition the root span: together they cover every span name exactly
        once, so they sum to ``workload.root_s``.
        """
        children_busy = [0.0] * len(self.parents)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children_busy[parent] += self.busy[index]
        table = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        api_busy = []
        for index, name_id in enumerate(self.name_ids):
            name = SPAN_NAMES[name_id]
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += self.busy[index]
            row["self_s"] += self.busy[index] - children_busy[index]
            if name.startswith("api."):
                api_busy.append(self.busy[index])
        api_busy.sort()

        def total(column: str, prefix: str) -> float:
            return sum(row[column] for name, row in table.items() if name.startswith(prefix))

        def calls(prefix: str) -> float:
            return total("calls", prefix)

        def self_s(prefix: str) -> float:
            return total("self_s", prefix)

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def percentile(fraction: float) -> float:
            return api_busy[int(fraction * (len(api_busy) - 1))] if api_busy else 0.0

        counters, storage, db = self.counters, self.storage, state.db
        root_s = self.busy[root]
        ingests = calls("cluster.feed.ingest")
        maintains = calls("cluster.partition.maintain")
        lookups = calls("cluster.partition.lookup")
        rebalances = [r for cluster in state.rebalances for r in cluster.dataset_reports]
        records_moved = sum(r.records_moved for r in rebalances)
        live_records = sum(db.dataset(name).count() for name in db.dataset_names())
        rebalance_busy = total("busy_s", "rebalance.")
        buckets = references = depth = 0
        for name in db.dataset_names():
            runtime = db.cluster.dataset(name)
            depth = max(depth, runtime.global_directory.global_depth)
            for partition in runtime.partitions.values():
                buckets += partition.primary.bucket_count
                for bucket in partition.primary.buckets():
                    references += sum(
                        isinstance(component, ReferenceDiskComponent)
                        for component in bucket.tree.disk_components
                    )
        return {
            "workload.root_s": root_s,
            "workload.self_s": self_s("workload."),
            "workload.share": self_s("workload.") / root_s,
            "workload.ops_drawn": state.attempted,
            "api.calls": calls("api."),
            "api.self_s": self_s("api."),
            "api.share": self_s("api.") / root_s,
            "api.call_p50_us": percentile(0.50) * 1e6,
            "api.call_p99_us": percentile(0.99) * 1e6,
            "api.call_max_ms": percentile(1.0) * 1e3,
            "cluster.feed.calls": ingests,
            "cluster.feed.self_s": self_s("cluster.feed."),
            "cluster.feed.share": self_s("cluster.feed.") / root_s,
            "cluster.feed.rows_per_call": ratio(counters["feed.rows"], ingests),
            "cluster.partition.maintain_calls": maintains,
            "cluster.partition.maintain_self_s": self_s("cluster.partition.maintain"),
            "cluster.partition.maintain_per_ingest": ratio(maintains, ingests),
            "cluster.partition.maintain_useful_share": ratio(
                counters["maintain.useful"], maintains
            ),
            "cluster.partition.stats_snapshot_calls": calls("cluster.partition.stats_snapshot"),
            "cluster.partition.stats_snapshot_self_s": self_s("cluster.partition.stats_snapshot"),
            "cluster.partition.lookup_calls": lookups,
            "cluster.partition.lookup_self_s": self_s("cluster.partition.lookup"),
            "cluster.partition.size_bytes_calls": calls("cluster.partition.size_bytes"),
            "cluster.partition.size_bytes_self_s": self_s("cluster.partition.size_bytes"),
            "cluster.cost.calls": calls("cluster.cost."),
            "cluster.cost.self_s": self_s("cluster.cost."),
            "bucketed.maintain_self_s": self_s("bucketed.maintain"),
            "bucketed.scan_self_s": self_s("bucketed.scan"),
            "bucketed.split_self_s": self_s("bucketed.split"),
            "bucketed.splits": calls("bucketed.split"),
            "bucketed.buckets_final": buckets,
            "lsm.flushes": storage["flush_count"],
            "lsm.merges": storage["merge_count"],
            "lsm.bytes_flushed": storage["bytes_flushed"],
            "lsm.bytes_merged_written": storage["bytes_merged_written"],
            "lsm.write_amp": ratio(
                storage["bytes_flushed"] + storage["bytes_merged_written"], counters["feed.bytes"]
            ),
            "lsm.components_opened": storage["components_opened"],
            "lsm.bloom_negative_skips": storage["bloom_negative_skips"],
            "lsm.records_read_per_lookup": ratio(storage["records_read"], lookups),
            "lsm.ref_size_bytes_calls": calls("lsm.ref_size_bytes"),
            "lsm.ref_size_bytes_self_s": self_s("lsm.ref_size_bytes"),
            "lsm.ref_size_bytes_share": self_s("lsm.ref_size_bytes") / root_s,
            "lsm.ref_components_final": references,
            "hashing.lookup_calls": calls("hashing."),
            "hashing.lookup_self_s": self_s("hashing."),
            "hashing.global_depth_final": depth,
            "rebalance.calls": calls("rebalance."),
            "rebalance.self_s": self_s("rebalance."),
            "rebalance.share": self_s("rebalance.") / root_s,
            "rebalance.total_share": rebalance_busy / root_s,
            "rebalance.records_moved": records_moved,
            "rebalance.buckets_moved": sum(r.buckets_moved for r in rebalances),
            "rebalance.bytes_shipped": sum(r.bytes_shipped for r in rebalances),
            "rebalance.moved_fraction": ratio(records_moved, len(state.rebalances) * live_records),
            "rebalance.concurrent_writes": sum(r.concurrent_writes_applied for r in rebalances),
            "rebalance.sim_s": sum(cluster.simulated_seconds for cluster in state.rebalances),
            "rebalance.host_us_per_record_moved": ratio(rebalance_busy * 1e6, records_moved),
            "sim.dispatches": counters["sim.dispatches"],
            "sim.self_s": self_s("sim."),
            "sim.heap_high_water": counters["sim.heap_high_water"],
            "sim.actors": calls("sim.spawn"),
            "common.events.emits": calls("common.events."),
            "common.events.self_s": self_s("common.events."),
            "common.events.share": self_s("common.events.") / root_s,
            "metrics.observe_calls": calls("metrics.observe_op"),
            "metrics.self_s": self_s("metrics.observe_op"),
            "metrics.share": self_s("metrics.observe_op") / root_s,
            "metrics.snapshot_self_s": self_s("metrics.snapshot"),
            "query.calls": calls("query.execute_"),
            "query.self_s": self_s("query.execute_"),
            "query.share": self_s("query.execute_") / root_s,
            "query.total_share": total("busy_s", "query.execute_") / root_s,
            "query.scan_self_s": self_s("query.scan"),
            "query.rows_scanned_per_row_returned": ratio(
                sum(report.records_scanned for report in state.queries),
                sum(report.rows_returned for report in state.queries),
            ),
            "tpch.load_s": state.tpch_load_s,
            "tpch.rows_loaded": state.tpch_rows_loaded,
        }

    def write(self, path: str, workload: str, seed: int) -> None:
        """Write the spans as columns; times are ns from the root's start."""
        origin = self.starts[0] if self.starts else 0.0

        def nanos(values: array, relative: bool) -> List[int]:
            return [round((value - origin if relative else value) * 1e9) for value in values]

        document = {
            "run_id": f"{workload}:{seed}",
            "span_names": SPAN_NAMES,
            "name_id": self.name_ids.tolist(),
            "parent": self.parents.tolist(),
            "start_ns": nanos(self.starts, True),
            "end_ns": nanos(self.ends, True),
            "busy_ns": nanos(self.busy, False),
            "counters": dict(self.counters),
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))

