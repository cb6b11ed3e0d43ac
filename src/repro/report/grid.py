"""Sweep grids: axes into cells.

An *axis* is a named list of values — either a shorthand alias (``strategy``,
``seed``, ``nodes``, ``workload_scale``, ``policy``) or a dotted path into the
spec's canonical mapping form (``workload.phases.0.ops``,
``autopilot.options.max_skew``).  Axes come from a spec's ``[sweep]`` section,
from ``--axis name=v1,v2`` CLI arguments, or both (a CLI axis replaces the
spec axis of the same name in place, so the grid order stays the declared
order).

:func:`expand_cells` walks the cartesian product in declared axis order and
builds one :class:`SweepCell` per point: the base spec (``[sweep]`` section
stripped) with the cell's overrides applied by
:meth:`~repro.scenario.ScenarioSpec.with_overrides` — the one override rule
the CLI's ``--seed`` / ``--strategy`` use too — so a bad combination fails
with the cell's id in the error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, List, Sequence, Tuple

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
    base = replace(base, sweep=None)
    names = [name for name, _ in axes]
    cells: List[SweepCell] = []
    for point in itertools.product(*(values for _, values in axes)):
        overrides = tuple(zip(names, point, strict=True))
        cell_id = ",".join(f"{name}={_value_text(value)}" for name, value in overrides)
        try:
            spec = base.with_overrides(overrides)
        except ScenarioSpecError as exc:
            raise ScenarioSpecError(f"cell {cell_id!r}: {exc}") from exc
        cells.append(SweepCell(cell_id=cell_id, overrides=overrides, spec=spec))
    return cells


def _value_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
