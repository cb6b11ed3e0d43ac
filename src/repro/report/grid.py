"""Sweep grids: axes into cells.

An *axis* is a named list of values — either a shorthand alias (``strategy``,
``seed``, ``nodes``, ``workload_scale``, ``policy``) or a dotted path into the
spec's canonical mapping form (``workload.phases.0.ops``,
``autopilot.options.max_skew``).  Axes come from a spec's ``[sweep]`` section,
from ``--axis name=v1,v2`` CLI arguments, or both (a CLI axis replaces the
spec axis of the same name in place, so the grid order stays the declared
order).

:func:`expand_cells` walks the cartesian product in declared axis order and
builds one :class:`SweepCell` per point: the base spec's canonical mapping
with the cell's overrides patched in (and the ``[sweep]`` section stripped),
re-validated through :meth:`~repro.scenario.ScenarioSpec.from_mapping` so a
bad combination fails with the cell's id in the error.  Overriding
``cluster.strategy`` drops the base spec's ``strategy_options`` — they are
specific to the strategy they were written for (the same rule as the CLI's
``--strategy`` override).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..scenario import ScenarioSpec, ScenarioSpecError
from ..scenario.spec import SweepSection

__all__ = ["SweepCell", "expand_cells", "merge_axes", "parse_axis_arg"]

Axis = Tuple[str, Tuple[Any, ...]]


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: an id, its overrides, and the resolved spec."""

    #: Stable identifier, e.g. ``"strategy=dynahash,seed=1"``.
    cell_id: str
    #: ``axis -> value`` for this cell, in declared axis order.
    overrides: Tuple[Tuple[str, Any], ...]
    #: The base spec with the overrides applied and ``[sweep]`` stripped.
    spec: ScenarioSpec

    @property
    def slug(self) -> str:
        """The cell id as a filesystem-safe fragment."""
        return "".join(
            ch if ch.isalnum() or ch in "._-" else "-" for ch in self.cell_id
        ).strip("-")


def _coerce_scalar(text: str) -> Any:
    """A CLI axis value string into the scalar a TOML author would write."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_axis_arg(argument: str) -> Axis:
    """Parse one ``--axis name=v1,v2,...`` argument into an axis."""
    name, separator, values_text = argument.partition("=")
    name = name.strip()
    if not separator or not name:
        raise ScenarioSpecError(
            f"--axis {argument!r}: expected NAME=VALUE[,VALUE...] "
            "(e.g. --axis strategy=dynahash,statichash)"
        )
    values = tuple(_coerce_scalar(v.strip()) for v in values_text.split(",") if v.strip())
    if not values:
        raise ScenarioSpecError(f"--axis {argument!r}: an axis needs at least one value")
    where = f"--axis {name}"
    SweepSection.validate_axis_name(name, where)
    # Reuse the section's alias-axis value checks (each value must parse as
    # the key the alias names) so a typo'd CLI value fails before any cell runs.
    SweepSection(axes=((name, values),))._validate("sweep")
    return name, values


def merge_axes(
    spec_axes: Sequence[Axis], cli_axes: Sequence[Axis]
) -> Tuple[Axis, ...]:
    """Spec axes in declared order, CLI axes replacing/appending by name."""
    merged: List[Axis] = list(spec_axes)
    for name, values in cli_axes:
        for index, (existing, _) in enumerate(merged):
            if existing == name:
                merged[index] = (name, values)
                break
        else:
            merged.append((name, values))
    return tuple(merged)


def _patch_path(mapping: Dict[str, Any], path: str, value: Any, where: str) -> None:
    """Set ``path`` (dotted; integer segments index arrays) in ``mapping``."""
    segments = path.split(".")
    target: Any = mapping
    for position, segment in enumerate(segments[:-1]):
        if isinstance(target, list):
            index = _array_index(segment, target, where)
            target = target[index]
        elif isinstance(target, dict):
            target = target.setdefault(segment, {})
        else:
            raise ScenarioSpecError(
                f"{where}: cannot descend into {'.'.join(segments[: position + 1])!r} "
                f"(it is a {type(target).__name__}, not a section)"
            )
    leaf = segments[-1]
    if isinstance(target, list):
        target[_array_index(leaf, target, where)] = value
    elif isinstance(target, dict):
        target[leaf] = value
    else:
        raise ScenarioSpecError(
            f"{where}: cannot set {path!r} on a {type(target).__name__}"
        )


def _array_index(segment: str, array: List[Any], where: str) -> int:
    try:
        index = int(segment)
    except ValueError:
        raise ScenarioSpecError(
            f"{where}: {segment!r} is not an array index (the spec has an "
            f"array of {len(array)} entries here)"
        ) from None
    if not 0 <= index < len(array):
        raise ScenarioSpecError(
            f"{where}: index {index} out of range (array has {len(array)} entries)"
        )
    return index


def expand_cells(base: ScenarioSpec, axes: Sequence[Axis]) -> List[SweepCell]:
    """One :class:`SweepCell` per point of the grid, in declared axis order.

    The last axis varies fastest (odometer order), so
    ``strategy=[a,b], seed=[1,2]`` yields ``a,1  a,2  b,1  b,2``.
    """
    if not axes:
        raise ScenarioSpecError(
            "sweep: no axes — declare a [sweep.axes] section in the spec or "
            "pass --axis NAME=VALUE,... on the command line"
        )
    import copy

    base_mapping = base.to_mapping()
    base_mapping.pop("sweep", None)

    cells: List[SweepCell] = []
    counters = [0] * len(axes)
    while True:
        overrides = tuple(
            (name, values[counters[position]])
            for position, (name, values) in enumerate(axes)
        )
        cell_id = ",".join(f"{name}={_value_text(value)}" for name, value in overrides)
        mapping = copy.deepcopy(base_mapping)
        for name, value in overrides:
            path = SweepSection.validate_axis_name(name, f"cell {cell_id!r}: axis {name}")
            if path == "cluster.strategy" and value != base.cluster.strategy:
                mapping.get("cluster", {}).pop("strategy_options", None)
            _patch_path(mapping, path, value, f"cell {cell_id!r}: axis {name}")
        try:
            spec = ScenarioSpec.from_mapping(mapping)
        except ScenarioSpecError as exc:
            raise ScenarioSpecError(f"cell {cell_id!r}: {exc}") from exc
        cells.append(SweepCell(cell_id=cell_id, overrides=overrides, spec=spec))

        position = len(axes) - 1
        while position >= 0:
            counters[position] += 1
            if counters[position] < len(axes[position][1]):
                break
            counters[position] = 0
            position -= 1
        if position < 0:
            return cells


def _value_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
