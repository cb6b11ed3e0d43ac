"""Formatting helpers for benchmark output.

The harness prints the same rows/series the paper's figures report; these
helpers render them as aligned console tables.  The generic
:func:`format_table` lives in :mod:`repro.common.reporting` (the metrics
layer uses it too) and is re-exported here for existing callers.
"""

from __future__ import annotations

from typing import List, Mapping

from ..common.reporting import format_table

__all__ = ["format_table", "per_query_table", "series_table"]


def series_table(
    series: Mapping[str, Mapping[object, float]],
    x_label: str,
    value_label: str,
) -> str:
    """Render {series name: {x: value}} with one column per series."""
    xs: List[object] = sorted({x for values in series.values() for x in values})
    headers = [x_label] + [f"{name} ({value_label})" for name in series]
    rows = []
    for x in xs:
        row: List[object] = [x]
        for name in series:
            value = series[name].get(x)
            row.append(value if value is not None else "-")
        rows.append(row)
    return format_table(headers, rows)


def per_query_table(
    results: Mapping[str, Mapping[str, float]], value_label: str = "seconds"
) -> str:
    """Render {approach: {query: seconds}} with one row per query."""
    queries = sorted(
        {query for values in results.values() for query in values},
        key=lambda name: int(name[1:]),
    )
    headers = ["query"] + [f"{approach} ({value_label})" for approach in results]
    rows = []
    for query in queries:
        row: List[object] = [query]
        for approach in results:
            row.append(results[approach].get(query, "-"))
        rows.append(row)
    return format_table(headers, rows)

