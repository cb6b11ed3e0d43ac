"""Hot-path microbenchmarks and the CI perf gate.

The simulator's throughput claims need receipts: this module times the four
layers the op/ingest hot path crosses — event routing, histogram recording,
the workload driver's end-to-end op loop, and feed ingestion — and can save
the numbers as a ``BENCH_micro.json`` payload (``--write-baseline PATH``).

Methodology
-----------
Each benchmark runs once as warm-up, then ``repeats`` timed runs (CPU time,
not wall time — CI runners share cores); the *median* is reported.  Because
absolute throughput varies wildly across machines, the artifact also records
a **calibration score** (a fixed pure-Python hashing loop) measured the same
way, and the perf gate compares *normalized* throughput — benchmark ops/sec
divided by calibration ops/sec — against the committed baseline.  A change
that makes the code slower shows up on any machine; a slower machine does
not.

Run locally::

    PYTHONPATH=src python -m repro.bench.micro
    PYTHONPATH=src python -m repro.bench.micro --dry-run
    PYTHONPATH=src python -m repro.bench.micro --check benchmarks/baselines/BENCH_micro.json
    PYTHONPATH=src python -m repro.bench.micro --write-baseline benchmarks/baselines/BENCH_micro.json

The gate (``--check``) fails with exit status 1 when any benchmark's
normalized throughput regresses more than ``--tolerance`` (default 25%)
below the baseline.  ``python -m repro bench`` forwards its arguments here
unchanged, so every flag above works there too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..common.events import EventBus
from ..common.hashutil import hash64
from ..metrics.histogram import LatencyHistogram

#: Gate tolerance: fail on more than this relative normalized regression.
DEFAULT_TOLERANCE = 0.25
DEFAULT_REPEATS = 3


# ---------------------------------------------------------------------------
# individual benchmarks (each returns units/second over CPU time)
# ---------------------------------------------------------------------------


def _timed(units: int, work: Callable[[], None]) -> float:
    started = time.process_time()
    work()
    elapsed = time.process_time() - started
    return units / elapsed if elapsed > 0 else float("inf")


def bench_calibration(loops: int = 200_000) -> float:
    """Machine-speed proxy: a fixed pure-Python hashing loop."""

    def work() -> None:
        for value in range(loops):
            hash64(value)

    return _timed(loops, work)


def bench_event_emit(emits: int = 50_000) -> float:
    """Compiled-router dispatch with a metrics-registry-shaped subscriber set."""
    bus = EventBus()
    sink: List[object] = []
    bus.on("op.*", sink.append)
    bus.on("op.batch", sink.append)
    bus.on("rebalance.start", sink.append)
    bus.on("rebalance.complete", sink.append)
    bus.on("ingest.complete", sink.append)
    bus.on("node.*", sink.append)
    bus.on("dataset.create", sink.append)
    bus.on("autopilot.*", sink.append)

    def work() -> None:
        emit = bus.emit
        for index in range(emits):
            emit("op.read", dataset="bench", latency_seconds=1e-5, records=1)

    return _timed(emits, work)


def bench_event_unheard(probes: int = 200_000) -> float:
    """The zero-subscriber fast path: ``has_subscribers`` probe per emission."""
    bus = EventBus()
    bus.on("rebalance.*", lambda event: None)

    def work() -> None:
        has = bus.has_subscribers
        for _ in range(probes):
            has("op.read")

    return _timed(probes, work)


def bench_histogram_record(samples: int = 200_000) -> float:
    """Single-sample recording through the O(1) log-index."""
    histogram = LatencyHistogram()
    values = [1e-6 * (1.1 ** (index % 150)) for index in range(1000)]

    def work() -> None:
        record = histogram.record
        for index in range(samples):
            record(values[index % 1000])

    return _timed(samples, work)


def bench_histogram_record_many(samples: int = 200_000) -> float:
    """Batched recording via ``record_many`` (the op.batch sink)."""
    histogram = LatencyHistogram()
    values = [1e-6 * (1.1 ** (index % 150)) for index in range(1000)]
    batches = [values] * (samples // 1000)

    def work() -> None:
        record_many = histogram.record_many
        for batch in batches:
            record_many(batch)

    return _timed(samples, work)


def bench_driver_ops(ops: int = 3000, initial_records: int = 800) -> float:
    """End-to-end driver throughput: YCSB-B through the driver's chunk pipeline."""
    from ..api import ClusterConfig, Database, WorkloadDriver, WorkloadSpec

    db = Database(
        ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash")
    )
    spec = WorkloadSpec(
        dataset="micro", initial_records=initial_records, mix="B", default_ops=ops
    )
    driver = WorkloadDriver(db, spec)
    driver.prepare()

    def work() -> None:
        driver.run()

    try:
        return _timed(ops, work)
    finally:
        db.close()


def bench_feed_ingest(rows: int = 10_000) -> float:
    """Feed ingestion throughput (rows/sec) through the grouped batch path."""
    from ..api import ClusterConfig, Database

    db = Database(
        ClusterConfig(num_nodes=3, partitions_per_node=2, strategy="dynahash")
    )
    db.create_dataset("bulk", primary_key="k")
    data = [
        {"k": index, "payload": f"{index:010d}" + "x" * 54} for index in range(rows)
    ]
    feed = db.cluster.feed("bulk", batch_size=2000)

    def work() -> None:
        feed.ingest(data)

    try:
        return _timed(rows, work)
    finally:
        db.close()


#: Benchmark registry: name -> (units label, zero-argument callable).
BENCHMARKS: Dict[str, Callable[[], float]] = {
    "event_emit": bench_event_emit,
    "event_unheard_probe": bench_event_unheard,
    "histogram_record": bench_histogram_record,
    "histogram_record_many": bench_histogram_record_many,
    "driver_ops": bench_driver_ops,
    "feed_ingest": bench_feed_ingest,
}


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def _median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def run_micro_suite(repeats: int = DEFAULT_REPEATS) -> Dict[str, object]:
    """Run every microbenchmark (warm-up + median-of-``repeats``).

    Returns the artifact payload: raw ops/sec per benchmark, the calibration
    score, and throughput normalized by the calibration score (what the perf
    gate compares).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    calibration = _median([bench_calibration() for _ in range(max(2, repeats))])
    results: Dict[str, float] = {}
    for name, benchmark in BENCHMARKS.items():
        benchmark()  # warm-up: fills caches, imports, and JIT-warm dicts
        results[name] = _median([benchmark() for _ in range(repeats)])
    return {
        "name": "micro",
        "repeats": repeats,
        "calibration_score": calibration,
        "ops_per_second": results,
        "normalized": {
            name: value / calibration for name, value in results.items()
        },
    }


# ---------------------------------------------------------------------------
# the perf gate
# ---------------------------------------------------------------------------


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Return one failure line per benchmark regressing past ``tolerance``.

    Compares *normalized* throughput (machine-speed independent).  Benchmarks
    present only on one side are ignored — adding a benchmark must not fail
    the gate until its baseline is committed.
    """
    failures = []
    current_norm: Dict[str, float] = dict(current.get("normalized", {}))  # type: ignore[arg-type]
    baseline_norm: Dict[str, float] = dict(baseline.get("normalized", {}))  # type: ignore[arg-type]
    for name, past in sorted(baseline_norm.items()):
        now = current_norm.get(name)
        if now is None or past <= 0:
            continue
        ratio = now / past
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: normalized throughput {now:.4f} is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline {past:.4f} "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
    return failures


def format_suite(payload: Dict[str, object]) -> str:
    lines = [
        f"calibration score: {payload['calibration_score']:,.0f} hashes/sec",
        f"{'benchmark':<24} {'ops/sec':>14} {'normalized':>12}",
    ]
    results: Dict[str, float] = payload["ops_per_second"]  # type: ignore[assignment]
    normalized: Dict[str, float] = payload["normalized"]  # type: ignore[assignment]
    for name in BENCHMARKS:
        lines.append(f"{name:<24} {results[name]:>14,.0f} {normalized[name]:>12.4f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="list the benchmarks that would run and exit",
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline BENCH_micro.json; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative normalized regression (default 0.25)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the run's payload to PATH (committing a new baseline)",
    )
    args = parser.parse_args(argv)

    if args.dry_run:
        for name in BENCHMARKS:
            print(f"micro:{name}")
        print(f"(dry run: {len(BENCHMARKS)} benchmarks selected)")
        return 0

    payload = run_micro_suite(repeats=args.repeats)
    print(format_suite(payload))

    if args.write_baseline:
        target = Path(args.write_baseline)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"baseline written: {target}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = compare_to_baseline(payload, baseline, tolerance=args.tolerance)
        if failures:
            print("\nPERF GATE FAILED:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"\nperf gate OK (tolerance {args.tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
