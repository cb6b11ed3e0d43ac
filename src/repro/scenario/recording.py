"""Scenario recordings: the on-disk artifact ``replay`` and ``inspect`` read.

A recording is one JSON document capturing everything needed to re-run a
scenario and check determinism:

* the **resolved spec** (canonical mapping form — seed and strategy overrides
  already applied), so ``replay`` does not need the original ``.toml`` file;
* the **seed** the run used;
* the frozen :class:`~repro.api.MetricsSnapshot` (via its lossless JSON form);
* the cluster's structural ``describe()`` snapshot and the check outcomes,
  for ``inspect``.

:func:`diff_snapshots` produces the human-readable difference list the
``replay`` subcommand prints — an empty list is the determinism contract
("same spec + same seed ⇒ bit-identical snapshot") holding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..metrics import MetricsSnapshot
from .runner import ScenarioResult
from .spec import ScenarioSpec, ScenarioSpecError

__all__ = [
    "diff_chaos",
    "diff_snapshots",
    "diff_traces",
    "load_recording",
    "recording_payload",
    "spec_from_recording",
    "snapshot_from_recording",
    "write_recording",
]

#: Version 2: every rebalance is priced per bucket and the spec header no
#: longer carries ``concurrency``, so a version-1 recording cannot replay.
RECORDING_VERSION = 2


def recording_payload(result: ScenarioResult) -> Dict[str, Any]:
    """The JSON-serialisable recording for one finished run."""
    payload = {
        "version": RECORDING_VERSION,
        "scenario": result.spec.to_mapping(),
        "seed": result.seed,
        "nodes": {"before": result.nodes_before, "after": result.nodes_after},
        "total_ops": result.total_ops,
        "simulated_seconds": result.simulated_seconds,
        "checks": [
            {"name": check.name, "passed": check.passed, "detail": check.detail}
            for check in result.checks
        ],
        "describe": result.describe,
        "snapshot": json.loads(result.snapshot.to_json()),
    }
    # Traced runs embed the span/series payload; untraced recordings omit it.
    if result.trace is not None:
        payload["trace"] = result.trace
    # Rebalance totals (count / seconds / records / bytes / buckets) feed the
    # sweep manifest and `compare` tables; same absence-tolerated contract.
    if result.rebalances:
        payload["rebalances"] = dict(result.rebalances)
    # Chaos runs embed the injected-event log (and the faulted site of an
    # interrupted rebalance) so `inspect` can print it and `replay` can diff
    # it; same absence-tolerated contract as `trace`.
    if result.chaos_events:
        payload["chaos"] = {
            "events": [dict(event) for event in result.chaos_events],
            "faulted_site": result.faulted_site,
            "recovery_seconds": result.recovery_seconds,
        }
    return payload


def write_recording(result: ScenarioResult, path: Union[str, Path]) -> str:
    """Write the run's recording to ``path`` (parents created); returns it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(recording_payload(result), sort_keys=True, indent=2) + "\n")
    return str(target)


def load_recording(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate a recording document."""
    target = Path(path)
    if not target.exists():
        raise ScenarioSpecError(f"recording not found: {target}")
    try:
        document = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioSpecError(f"{target}: not a recording (invalid JSON: {exc})") from exc
    if not isinstance(document, dict) or "scenario" not in document or "snapshot" not in document:
        raise ScenarioSpecError(
            f"{target}: not a scenario recording (missing 'scenario'/'snapshot'); "
            "recordings are written by `python -m repro run --record`"
        )
    version = document.get("version")
    if version != RECORDING_VERSION:
        raise ScenarioSpecError(
            f"{target}: unsupported recording version {version!r} "
            f"(this build reads version {RECORDING_VERSION})"
        )
    return document


def spec_from_recording(document: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild the resolved spec embedded in a recording."""
    return ScenarioSpec.from_mapping(document["scenario"])


def snapshot_from_recording(document: Dict[str, Any]) -> MetricsSnapshot:
    """Rebuild the recorded metrics snapshot."""
    return MetricsSnapshot.from_json(json.dumps(document["snapshot"]))


def diff_snapshots(recorded: MetricsSnapshot, replayed: MetricsSnapshot) -> List[str]:
    """Human-readable differences between two snapshots (empty = identical)."""
    differences: List[str] = []
    if recorded.phase != replayed.phase:
        differences.append(f"phase: recorded {recorded.phase!r}, replayed {replayed.phase!r}")
    if recorded.simulated_seconds != replayed.simulated_seconds:
        differences.append(
            f"simulated_seconds: recorded {recorded.simulated_seconds!r}, "
            f"replayed {replayed.simulated_seconds!r}"
        )
    differences.extend(
        _diff_mapping("counters", recorded.counters, replayed.counters)
    )
    differences.extend(_diff_mapping("gauges", recorded.gauges, replayed.gauges))
    differences.extend(
        _diff_mapping("histograms", recorded.histograms, replayed.histograms)
    )
    return differences


def diff_traces(recorded: Any, replayed: Any) -> List[str]:
    """Differences between two trace payloads (empty = identical).

    Traces are compared through their canonical JSON form, so tuple/list
    representation differences between a live payload and one round-tripped
    through a recording file do not count as divergence.  ``None`` on both
    sides (untraced runs) compares equal.
    """
    if recorded is None and replayed is None:
        return []
    if recorded is None or replayed is None:
        missing = "recording" if recorded is None else "replay"
        return [f"trace: missing from the {missing}"]
    recorded = json.loads(json.dumps(recorded, sort_keys=True))
    replayed = json.loads(json.dumps(replayed, sort_keys=True))
    if recorded == replayed:
        return []
    differences = []
    for key in ("version", "scenario", "seed", "interval_seconds"):
        if recorded.get(key) != replayed.get(key):
            differences.append(
                f"trace.{key}: recorded {recorded.get(key)!r}, replayed {replayed.get(key)!r}"
            )
    recorded_spans = recorded.get("spans", [])
    replayed_spans = replayed.get("spans", [])
    if len(recorded_spans) != len(replayed_spans):
        differences.append(
            f"trace.spans: recorded {len(recorded_spans)} span(s), "
            f"replayed {len(replayed_spans)}"
        )
    else:
        for index, (left, right) in enumerate(zip(recorded_spans, replayed_spans, strict=True)):
            if left != right:
                differences.append(
                    f"trace.spans[{index}]: recorded {_compact(left)}, replayed {_compact(right)}"
                )
    recorded_series = {series["name"]: series for series in recorded.get("series", [])}
    replayed_series = {series["name"]: series for series in replayed.get("series", [])}
    differences.extend(_diff_mapping("trace.series", recorded_series, replayed_series))
    if recorded.get("heat") != replayed.get("heat"):
        differences.append("trace.heat: per-bucket heat tables differ")
    if not differences:
        # Canonical forms differ but no category above caught it (e.g. an
        # unknown key) — still report the divergence rather than hide it.
        differences.append("trace: payloads differ")
    return differences


def diff_chaos(recorded: Any, replayed: Any) -> List[str]:
    """Differences between two chaos payloads (empty = identical).

    Compared through canonical JSON like :func:`diff_traces`; ``None`` on
    both sides (chaos-free runs) compares equal.
    """
    if recorded is None and replayed is None:
        return []
    if recorded is None or replayed is None:
        missing = "recording" if recorded is None else "replay"
        return [f"chaos: missing from the {missing}"]
    recorded = json.loads(json.dumps(recorded, sort_keys=True))
    replayed = json.loads(json.dumps(replayed, sort_keys=True))
    if recorded == replayed:
        return []
    differences = []
    for key in ("faulted_site", "recovery_seconds"):
        if recorded.get(key) != replayed.get(key):
            differences.append(
                f"chaos.{key}: recorded {recorded.get(key)!r}, replayed {replayed.get(key)!r}"
            )
    recorded_events = recorded.get("events", [])
    replayed_events = replayed.get("events", [])
    if len(recorded_events) != len(replayed_events):
        differences.append(
            f"chaos.events: recorded {len(recorded_events)} event(s), "
            f"replayed {len(replayed_events)}"
        )
    else:
        for index, (left, right) in enumerate(
            zip(recorded_events, replayed_events, strict=True)
        ):
            if left != right:
                differences.append(
                    f"chaos.events[{index}]: recorded {_compact(left)}, "
                    f"replayed {_compact(right)}"
                )
    if not differences:
        differences.append("chaos: payloads differ")
    return differences


def _diff_mapping(label: str, recorded: Dict[str, Any], replayed: Dict[str, Any]) -> List[str]:
    differences = []
    for key in sorted(set(recorded) | set(replayed)):
        if key not in replayed:
            differences.append(f"{label}[{key}]: present only in the recording")
        elif key not in recorded:
            differences.append(f"{label}[{key}]: present only in the replay")
        elif recorded[key] != replayed[key]:
            differences.append(
                f"{label}[{key}]: recorded {_compact(recorded[key])}, "
                f"replayed {_compact(replayed[key])}"
            )
    return differences


def _compact(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
