"""Compare two ``BENCH_e2e.json`` files: ``compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate.  Per workload
and end-to-end metric the verdict is one of

* ``regression`` — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json`` (a share of A's median);
* ``unresolved`` — the quartile spread of either side exceeds the bound, so
  the runs cannot tell "unchanged" from "changed";
* ``ok`` — neither.

Counts are compared for identity instead: ``sim_digest`` and every per-layer
metric whose unit is a count, bytes, a count ratio or simulated seconds must
be *equal*, because a pure speed-up leaves every simulated
statistic where it was.  Exit status is 1 on any regression or mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

#: Per-layer units that repeat exactly between runs of one program.
EXACT_UNITS = ("count", "B", "ratio", "hash48", "sim_s")


def report(first: Mapping[str, Any], second: Mapping[str, Any], contract: Mapping[str, Any]) -> int:
    """Print the comparison table; returns the exit status."""
    regressions = mismatches = unresolved = 0
    for name in first["workloads"]:
        if name not in second["workloads"]:
            print(f"{name}: missing from the second file")
            mismatches += 1
            continue
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            old, new = a["end_to_end"][key], b["end_to_end"][key]
            change = (new["value"] - old["value"]) / old["value"]
            worse = change if metric["better"] == "lower" else -change
            spread = max((side["q3"] - side["q1"]) / side["value"] for side in (old, new))
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            print(
                f"{name:<14} {key:<14} {old['value']:>12.6g} -> {new['value']:>12.6g} "
                f"{metric['unit']:<5} {change:+8.2%} (bound {bound:.0%}, spread {spread:.2%}) "
                f"{verdict}"
            )
        if a["fail_share"] or b["fail_share"]:
            print(f"{name:<14} fail_share {a['fail_share']} -> {b['fail_share']}: must be 0")
            regressions += 1
        if a["sim_digest"] != b["sim_digest"]:
            print(f"{name:<14} sim_digest differs: {a['sim_digest']} vs {b['sim_digest']}")
            mismatches += 1
        old_layers, new_layers = a.get("per_layer", {}), b.get("per_layer", {})
        for metric in contract["per_layer"]:
            key = metric["name"]
            if key not in old_layers or key not in new_layers:
                continue
            if metric["unit"] not in EXACT_UNITS:
                continue
            if old_layers[key]["value"] != new_layers[key]["value"]:
                print(
                    f"{name:<14} {key} must repeat exactly: "
                    f"{old_layers[key]['value']} vs {new_layers[key]['value']}"
                )
                mismatches += 1
    print(f"{regressions} regressions, {unresolved} unresolved, {mismatches} exact mismatches")
    return 1 if regressions or mismatches else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        print("usage: compare.py A.json B.json")
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in paths)
    contract = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    return report(first, second, contract)


if __name__ == "__main__":
    sys.exit(main())
