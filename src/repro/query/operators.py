"""Relational operators over Python-dict rows.

A deliberately small but real physical algebra: scans produce iterables of
row dicts, and the remaining operators (filter, project, hash join, hash
group-by, order-by, limit) compose over them.  The cluster query executor
(:mod:`repro.query.executor`) uses these to run genuine query plans over the
simulated partitions; the per-operator record counts it gathers feed the cost
model, which is how the TPC-H query-time figures are regenerated.

Operators work a batch at a time: each takes any iterable, materialises it
once and returns a list, and bumps its :class:`OperatorStats` count once per
call by the batch's length (an empty batch bumps nothing).  The totals are
the ones a row-at-a-time operator would count, so the simulated operator time
does not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..common.errors import QueryError, UnknownColumnError

Row = Dict[str, Any]


@dataclass
class OperatorStats:
    """Records processed by each operator of a plan (for cost accounting)."""

    counts: Dict[str, int] = field(default_factory=dict)

    def bump(self, operator_name: str, amount: int = 1) -> None:
        self.counts[operator_name] = self.counts.get(operator_name, 0) + amount

    @property
    def total_records_processed(self) -> int:
        return sum(self.counts.values())


def _get(row: Row, column: str) -> Any:
    try:
        return row[column]
    except KeyError:
        raise UnknownColumnError(f"row has no column {column!r}: {sorted(row)[:8]}") from None


def _as_list(rows: Iterable[Row]) -> List[Row]:
    return rows if isinstance(rows, list) else list(rows)


def _count(stats: Optional[OperatorStats], name: str, batch: List[Row]) -> None:
    """One bump for a whole batch (none for an empty one, which a per-row
    count would never have touched)."""
    if stats is not None and batch:
        stats.bump(name, len(batch))


def filter_rows(
    rows: Iterable[Row],
    predicate: Callable[[Row], bool],
    stats: Optional[OperatorStats] = None,
    name: str = "filter",
) -> List[Row]:
    """SELECT ... WHERE predicate."""
    batch = _as_list(rows)
    _count(stats, name, batch)
    return [row for row in batch if predicate(row)]


def project(
    rows: Iterable[Row],
    columns: Sequence[str] = (),
    computed: Optional[Mapping[str, Callable[[Row], Any]]] = None,
    stats: Optional[OperatorStats] = None,
    name: str = "project",
) -> List[Row]:
    """Projection with optional computed columns."""
    batch = _as_list(rows)
    _count(stats, name, batch)
    extra = list((computed or {}).items())
    return [
        {
            **{column: _get(row, column) for column in columns},
            **{column: fn(row) for column, fn in extra},
        }
        for row in batch
    ]


def hash_join(
    left: Iterable[Row],
    right: Iterable[Row],
    left_key: Callable[[Row], Any],
    right_key: Callable[[Row], Any],
    stats: Optional[OperatorStats] = None,
    name: str = "hash_join",
    how: str = "inner",
) -> List[Row]:
    """Hash join (build on the right input, probe with the left).

    ``how`` supports "inner" and "left_semi" (the shape TPC-H's EXISTS
    subqueries compile to) and "left_anti" (NOT EXISTS).
    """
    if how not in ("inner", "left_semi", "left_anti"):
        raise QueryError(f"unsupported join type {how!r}")
    build_rows = _as_list(right)
    _count(stats, f"{name}:build", build_rows)
    build: Dict[Any, List[Row]] = {}
    for row in build_rows:
        build.setdefault(right_key(row), []).append(row)
    probe_rows = _as_list(left)
    _count(stats, f"{name}:probe", probe_rows)
    if how == "left_semi":
        return [row for row in probe_rows if left_key(row) in build]
    if how == "left_anti":
        return [row for row in probe_rows if left_key(row) not in build]
    return [{**match, **row} for row in probe_rows for match in build.get(left_key(row), ())]


#: Each aggregate kind as one fold over a group's values (a lazy ``map``,
#: so ``count`` never evaluates its extractor) and the group's size.  Sums
#: add in row order, as a running total would, so float answers keep their
#: bits (the builtin ``sum`` may compensate).
_FOLDS: Dict[str, Callable[[Iterator[Any], int], Any]] = {
    "sum": lambda values, size: reduce(add, values, 0),
    "count": lambda values, size: size,
    "min": lambda values, size: min(values),
    "max": lambda values, size: max(values),
    "avg": lambda values, size: reduce(add, values, 0) / size,
}


def hash_group_by(
    rows: Iterable[Row],
    key: Callable[[Row], Any],
    aggregates: Mapping[str, Tuple[str, Callable[[Row], Any]]],
    stats: Optional[OperatorStats] = None,
    name: str = "group_by",
) -> List[Row]:
    """Hash aggregation.

    ``aggregates`` maps output column -> (kind, value extractor) with kind in
    {"sum", "count", "min", "max", "avg"}.  Groups come out in first-seen
    order, each aggregate folded over its group's rows.
    """
    for column, (kind, _fn) in aggregates.items():
        if kind not in _FOLDS:
            raise QueryError(f"unsupported aggregate {kind!r} for column {column!r}")
    folds = [(column, _FOLDS[kind], fn) for column, (kind, fn) in aggregates.items()]
    batch = _as_list(rows)
    _count(stats, name, batch)
    members: Dict[Any, List[Row]] = {}
    reported: Dict[Any, Any] = {}
    for row, group_value in zip(batch, map(key, batch), strict=True):
        # Dict group keys (named grouping columns) are hashed by their sorted
        # items but reported back as the original dict (the group's last).
        group = (
            tuple(sorted(group_value.items())) if isinstance(group_value, dict) else group_value
        )
        reported[group] = group_value
        members.setdefault(group, []).append(row)
    result: List[Row] = []
    for group, group_rows in members.items():
        group_value = reported[group]
        out: Row = dict(group_value) if isinstance(group_value, dict) else {"group_key": group_value}
        for column, fold, fn in folds:
            out[column] = fold(map(fn, group_rows), len(group_rows))
        result.append(out)
    return result


def order_by(
    rows: Iterable[Row],
    key: Callable[[Row], Any],
    descending: bool = False,
    stats: Optional[OperatorStats] = None,
    name: str = "order_by",
) -> List[Row]:
    """Full sort (materialises its input, as a sort operator must)."""
    materialised = list(rows)
    if stats is not None:
        stats.bump(name, len(materialised))
    return sorted(materialised, key=key, reverse=descending)


def limit(rows: Iterable[Row], count: int) -> List[Row]:
    """LIMIT count."""
    if count < 0:
        raise QueryError("limit must be non-negative")
    return list(islice(rows, count))


def scalar_aggregate(
    rows: Iterable[Row],
    aggregates: Mapping[str, Tuple[str, Callable[[Row], Any]]],
    stats: Optional[OperatorStats] = None,
    name: str = "aggregate",
) -> Row:
    """Aggregation without grouping; always returns exactly one row."""
    result_rows = hash_group_by(rows, key=lambda row: 0, aggregates=aggregates, stats=stats, name=name)
    if not result_rows:
        return {column: (0 if kind in ("count", "sum") else None) for column, (kind, _f) in aggregates.items()}
    row = result_rows[0]
    row.pop("group_key", None)
    return row
