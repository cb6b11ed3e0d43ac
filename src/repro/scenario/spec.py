"""Declarative scenario specs: frozen dataclasses a TOML/JSON file validates into.

A *scenario* is everything one experiment needs, declared in one document:
the cluster to build, the datasets to create (or the TPC-H subset to load),
the phased workload to drive, the autopilot policy to attach, the explicit
steps to run afterwards (rebalances — possibly fault-injected — recovery,
queries), and the checks the run must satisfy.  The
:mod:`~repro.scenario.runner` compiles a validated :class:`ScenarioSpec` onto
the existing :class:`~repro.api.Database` / :class:`~repro.api.WorkloadDriver`
/ :class:`~repro.api.Autopilot` APIs, so a spec file is exactly as powerful —
and exactly as deterministic — as the Python it replaces.

One declaration per key
-----------------------
Every key a document may carry is declared once, as a dataclass field of its
section built with :func:`_key`: a *kind* (how the value is read, bounded,
resolved against a live registry and written back), a default (none = the key
is required) and whether the canonical form always emits it.  One generic
walk (:func:`_parse_keys` / :func:`_emit_keys`) serves every section, the
sweep's alias axes and the key reference in ``docs/api/repro.scenario.md``;
rules spanning several keys stay code, in the section's ``_validate`` hook.

Validation philosophy
---------------------
Specs are parsed *strictly*: unknown sections and unknown keys are errors
(catching typos like ``initial_recrods``), every error names the section path
it occurred in (``workload.phases[2]``), and cross-field conflicts that could
silently produce a meaningless run (a phase-scheduled rebalance fighting an
autopilot, a dry-run autopilot expected to rebalance) are rejected with
messages that say what to change.  Byte-sized fields accept either integers
or human-readable strings (``"32 KiB"``, ``"10 GiB"``).

The canonical mapping form (:meth:`ScenarioSpec.to_mapping`) round-trips:
``ScenarioSpec.from_mapping(spec.to_mapping()) == spec``; recordings embed it
so :mod:`repro.cli`'s ``replay`` can re-run a scenario without the original
file.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import MISSING, dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
from typing import Type, TypeVar, Union

from ..api.registry import available_strategies, strategy_by_name
from ..chaos import CrashPlan, LoadWindow, PartitionWindow, RetryPolicy, StragglerWindow
from ..common.config import BucketingConfig, ClusterConfig, CostModelConfig, LSMConfig
from ..common.errors import ConfigError
from ..common.units import GIB, KIB, MIB
from ..control import available_policies, resolve_policy
from ..metrics import PHASE_REBALANCE, PHASE_STEADY
from ..rebalance.operation import FAULT_SITES
from ..tpch import DEFAULT_TABLES, QUERY_NAMES, REAL_PLANS, TABLES_BY_NAME
from ..workload.driver import WorkloadSpec
from ..workload.keygen import DISTRIBUTIONS
from ..workload.mixes import OPERATIONS, YCSB_MIXES, OperationMix
from ..workload.schedule import Phase, Schedule

_S = TypeVar("_S")

__all__ = [
    "AutopilotSection",
    "ChaosSection",
    "ChecksSection",
    "ClusterSection",
    "DatasetSection",
    "QueryStep",
    "RebalanceStep",
    "RecoverStep",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SecondaryIndexSection",
    "SweepSection",
    "TPCHSection",
    "TraceSection",
    "WorkloadPhaseSpec",
    "WorkloadSection",
    "parse_bytes",
]


class ScenarioSpecError(ConfigError):
    """A scenario document failed validation; the message names the section."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

_BYTE_UNITS = {
    "B": 1,
    "KB": 1000,
    "MB": 1000**2,
    "GB": 1000**3,
    "KIB": KIB,
    "MIB": MIB,
    "GIB": GIB,
}


def parse_bytes(value: Any, where: str = "value") -> int:
    """An integer byte count, or a string like ``"32 KiB"`` / ``"10 GiB"``."""
    if isinstance(value, bool):
        raise ScenarioSpecError(f"{where}: expected a byte size, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        for unit in sorted(_BYTE_UNITS, key=len, reverse=True):
            if text.upper().endswith(unit):
                number = text[: len(text) - len(unit)].strip()
                try:
                    return int(float(number) * _BYTE_UNITS[unit])
                except (ValueError, OverflowError):
                    break
        try:
            return int(text)
        except ValueError:
            pass
    raise ScenarioSpecError(
        f"{where}: expected a byte size (int or a string like \"32 KiB\"), got {value!r}"
    )


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioSpecError(f"{where}: expected a table, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# key kinds: how one key's value is read, checked and written back
# ---------------------------------------------------------------------------


def _as_is(value: Any, where: str = "") -> Any:
    return value


@dataclass(frozen=True)
class _Kind:
    """How one spec key is parsed from a document and emitted back."""

    #: The "type" column of the generated key reference.
    label: str = "value"
    parse: Callable[[Any, str], Any] = _as_is
    emit: Callable[[Any], Any] = _as_is
    #: Registry names for the reference's "allowed values" column, read live.
    allowed: Callable[[], Sequence[str]] = tuple
    #: The declared keys of a table kind.
    keys: Optional[Mapping[str, "_Key"]] = None
    #: The section class(es) of a nested table or (``many``) an array of them.
    classes: Tuple[type, ...] = ()
    many: bool = False


def _scalar(
    *types: type,
    minimum: Optional[float] = None,
    positive: bool = False,
    complaint: str = "",
    nonempty: bool = False,
) -> _Kind:
    """An int / number / str / bool (a bool never passes for an int),
    optionally bounded below; ``complaint`` replaces the type/bound wording
    (``"seeds must be integers"``)."""
    name = "number" if float in types else types[0].__name__
    bound = "positive" if positive else f"at least {minimum:g}" if minimum else "non-negative"

    def parse(value: Any, where: str) -> Any:
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            got = "a boolean" if isinstance(value, bool) else type(value).__name__
            problem = f"expected {' or '.join(t.__name__ for t in types)}, got {got}"
        elif (positive and value <= 0) or (minimum is not None and value < minimum):
            problem = f"must be {bound}, got {value!r}"
        elif nonempty and not value:
            problem = "must not be empty"
        else:
            return float(value) if float in types else value
        raise ScenarioSpecError(
            f"{where}: " + (f"{complaint}, got {value!r}" if complaint else problem)
        )

    return _Kind(f"{name}, {bound}" if positive or minimum is not None else name, parse)


_ANY = _Kind()
_STR = _scalar(str)
_INT = _scalar(int)
_BOOL = _scalar(bool)
_POSITIVE_INT = _scalar(int, minimum=1)
_SECONDS = _scalar(int, float, minimum=0)
_POSITIVE = _scalar(int, float, positive=True)
_BYTES = _Kind('byte size (int or "32 KiB")', parse_bytes)


def _choice(
    message: str,
    choices: Callable[[], Sequence[str]],
    accepts: Optional[Callable[[str], bool]] = None,
) -> _Kind:
    """A string resolved against a registry that is read when a spec is parsed."""

    def parse(value: Any, where: str) -> str:
        _STR.parse(value, where)
        if not (accepts(value) if accepts else value in choices()):
            raise ScenarioSpecError(
                f"{where}: " + message.format(value=value, choices=", ".join(choices()))
            )
        return value

    return _Kind("str", parse, allowed=choices)


def _strings(
    message: str = "",
    choices: Callable[[], Sequence[str]] = tuple,
    scalar_if_single: bool = False,
    nonempty: bool = False,
) -> _Kind:
    """A string or a list of strings, kept as a tuple; with ``message``, each
    must be one of the registry names ``choices()``."""

    def parse(value: Any, where: str) -> Tuple[str, ...]:
        if isinstance(value, str):
            value = (value,)
        if not isinstance(value, Sequence) or not all(isinstance(item, str) for item in value):
            raise ScenarioSpecError(f"{where}: expected a string or a list of strings")
        if nonempty and not value:
            raise ScenarioSpecError(f"{where}: must not be empty")
        unknown = sorted(set(value) - set(choices())) if message else []
        if unknown:
            raise ScenarioSpecError(
                f"{where}: " + message.format(unknown=unknown, choices=", ".join(choices()))
            )
        return tuple(value)

    def emit(value: Tuple[str, ...]) -> Any:
        return value[0] if scalar_if_single and len(value) == 1 else list(value)

    return _Kind("str or list of str", parse, emit, allowed=choices)


def _free_table(bytes_suffix: str = "") -> _Kind:
    """A table whose keys belong to someone else (a strategy or policy
    factory); only byte sizes under ``*bytes_suffix`` keys are resolved."""

    def parse(value: Any, where: str) -> Dict[str, Any]:
        table = dict(_require_mapping(value, where))
        for key, item in table.items():
            if bytes_suffix and str(key).endswith(bytes_suffix):
                table[key] = parse_bytes(item, f"{where}.{key}")
        return table

    return _Kind("table", parse, dict)


def _table(keys: "Mapping[str, _Key]", echo: bool = False) -> _Kind:
    """A table of declared keys kept as a plain dict.  ``echo`` keeps it as
    written (byte sizes stay ``"32 KiB"`` in the canonical form, mix weights
    keep their int/float spelling); its consumer resolves it with
    :func:`_parse_keys` again."""

    def parse(value: Any, where: str) -> Dict[str, Any]:
        resolved = _parse_keys(keys, _require_mapping(value, where), where)
        return dict(value) if echo else resolved

    return _Kind("table", parse, dict, keys=keys)


def _nested(cls: type) -> _Kind:
    """A sub-table that validates into the section class ``cls``."""
    return _Kind("table", functools.partial(_parse_section, cls), _emit_section, classes=(cls,))


def _array(*classes: type) -> _Kind:
    """An array of tables; several classes means a union tagged by ``kind``."""
    by_kind = {getattr(cls, "kind", None): cls for cls in classes}
    tag = _choice(
        "unknown step kind {value!r}; available kinds: {choices}", lambda: sorted(by_kind)
    )

    def class_of(entry: Any, where: str) -> type:
        if len(classes) == 1:
            return classes[0]
        if "kind" not in _require_mapping(entry, where):
            raise ScenarioSpecError(f"{where}: missing required key(s) ['kind']")
        return by_kind[tag.parse(entry["kind"], f"{where}.kind")]

    def parse(value: Any, where: str) -> Tuple[Any, ...]:
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            hint = "" if "[" in where else f" ([[{where}]])"
            raise ScenarioSpecError(f"{where}: expected an array of tables{hint}")
        return tuple(
            _parse_section(class_of(entry, f"{where}[{position}]"), entry, f"{where}[{position}]")
            for position, entry in enumerate(value)
        )

    def emit(value: Tuple[Any, ...]) -> List[Dict[str, Any]]:
        return [_emit_section(entry) for entry in value]

    return _Kind("array of tables", parse, emit, classes=classes, many=True)


# ---------------------------------------------------------------------------
# the one generic walk: declarations -> parsed values -> canonical mapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Key:
    """One key's declaration: its kind plus how the canonical form treats it."""

    kind: _Kind
    #: The dataclass field's default; MISSING makes the key required.
    default: Any
    #: Emitted even when it equals the default (required keys always are).
    always: bool = False
    #: Lives in the ``[scenario]`` header table rather than at the top level.
    header: bool = False

    @property
    def required(self) -> bool:
        return self.default is MISSING


def _key(kind: _Kind, default: Any = MISSING, *, factory: Any = MISSING, **treatment: bool) -> Any:
    """A section dataclass field that is also a spec key (see the module docstring)."""
    key = _Key(kind, default if factory is MISSING else factory(), **treatment)
    return dataclasses.field(default=default, default_factory=factory, metadata={"key": key})


def _field_keys(
    cls: type, kinds: "Mapping[str, _Kind] | Callable[[str], _Kind]"
) -> Dict[str, _Key]:
    """Keys for a record class declared elsewhere (a config, a chaos window):
    defaults come from its dataclass fields, kinds and canonical order from
    ``kinds`` — a ``name -> kind`` table, or a rule applied to every field."""
    defaults = {field.name: field.default for field in dataclasses.fields(cls)}
    if callable(kinds):
        kinds = {name: kinds(name) for name in defaults}
    return {name: _Key(kind, defaults[name]) for name, kind in kinds.items()}


@functools.cache
def _keys(cls: type) -> Mapping[str, _Key]:
    """Every key of section ``cls``, in canonical (emission) order."""
    return _RECORD_KEYS.get(cls) or {
        field.name: field.metadata["key"]
        for field in dataclasses.fields(cls)
        if "key" in field.metadata
    }


def _parse_keys(
    keys: Mapping[str, _Key], mapping: Mapping[str, Any], where: str, extra: Sequence[str] = ()
) -> Dict[str, Any]:
    """Validate ``mapping`` against ``keys``; parsed values of the keys it gives.

    ``where`` is the section path every error starts with (empty for the
    document's top level); ``extra`` names keys that are allowed but owned by
    the caller (a step's ``kind`` tag, the ``[scenario]`` header).
    """
    label, allowed = where or "scenario document", (*extra, *keys)
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioSpecError(
            f"{label}: unknown key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )
    missing = sorted(name for name, key in keys.items() if key.required and name not in mapping)
    if missing:
        raise ScenarioSpecError(f"{label}: missing required key(s) {missing}")
    prefix = f"{where}." if where else ""
    return {
        name: key.kind.parse(mapping[name], prefix + name)
        for name, key in keys.items()
        if name in mapping
    }


def _emit_keys(keys: Mapping[str, _Key], section: Any) -> Dict[str, Any]:
    """Canonical form: a key is written when required, declared ``always``,
    or different from its default."""
    return {
        name: key.kind.emit(getattr(section, name))
        for name, key in keys.items()
        if key.always or key.required or getattr(section, name) != key.default
    }


def _parse_section(cls: Type[_S], mapping: Any, where: str) -> _S:
    tag = ("kind",) if hasattr(cls, "kind") else ()
    section = cls(**_parse_keys(_keys(cls), _require_mapping(mapping, where), where, tag))
    if isinstance(section, _Section):
        section._validate(where)
    return section


def _emit_section(section: Any) -> Dict[str, Any]:
    tag = {"kind": section.kind} if hasattr(section, "kind") else {}
    return {**tag, **_emit_keys(_keys(type(section)), section)}


class _Section:
    """What every section shares: the generic walk behind its entry points."""

    @classmethod
    def from_mapping(cls: Type[_S], mapping: Mapping[str, Any], where: Optional[str] = None) -> _S:
        """Validate ``mapping``, the table a document gives at path ``where``.

        ``where`` prefixes every error and defaults to the section's name
        (``ClusterSection`` -> ``cluster``)."""
        if where is None:
            where = cls.__name__.removesuffix("Section").lower()
        return _parse_section(cls, mapping, where)

    def to_mapping(self) -> Dict[str, Any]:
        """The section's canonical, JSON-serialisable form."""
        return _emit_section(self)

    def _validate(self, where: str) -> None:
        """Rules spanning several keys of the section; raise ScenarioSpecError."""


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _config_table(config_cls: type) -> _Kind:
    """``[cluster.lsm]`` & co.: the keys are the config dataclass's fields."""

    def kind_of(name: str) -> _Kind:
        return _BYTES if name.endswith(("_bytes", "_bytes_per_sec")) else _ANY

    return _table(_field_keys(config_cls, kind_of), echo=True)


def _strategy_is_registered(name: str) -> bool:
    try:
        strategy_by_name(name)
    except ConfigError:
        return False
    except TypeError:
        pass  # registered; its factory needs the section's strategy_options
    return True


_LSM = _config_table(LSMConfig)
_BUCKETING = _config_table(BucketingConfig)
_COST = _config_table(CostModelConfig)
_STRATEGY = _choice(
    "unknown strategy {value!r} (registered strategies: {choices})",
    available_strategies,
    _strategy_is_registered,
)


@dataclass(frozen=True)
class ClusterSection(_Section):
    """``[cluster]``: the :class:`~repro.api.ClusterConfig` to build."""

    nodes: int = _key(_INT, 4, always=True)
    partitions_per_node: int = _key(_INT, 2, always=True)
    seed: Optional[int] = _key(_scalar(int, complaint="seeds must be integers"), None)
    strategy: str = _key(_STRATEGY, "dynahash", always=True)
    strategy_options: Mapping[str, Any] = _key(_free_table(), factory=dict)
    workload_scale: float = _key(_POSITIVE, 1.0)
    lsm: Mapping[str, Any] = _key(_LSM, factory=dict)
    bucketing: Mapping[str, Any] = _key(_BUCKETING, factory=dict)
    cost: Mapping[str, Any] = _key(_COST, factory=dict)

    def _validate(self, where: str) -> None:
        self.build_config()  # validate eagerly so errors carry the section path

    def build_config(self, seed_override: Optional[int] = None) -> ClusterConfig:
        """Compile this section into a :class:`~repro.api.ClusterConfig`."""
        try:  # resolves aliases and validates the factory options at spec time
            strategy_by_name(self.strategy, **dict(self.strategy_options))
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(
                f"cluster.strategy: cannot build strategy {self.strategy!r} "
                f"with options {dict(self.strategy_options)!r}: {exc} "
                f"(registered strategies: {', '.join(available_strategies())})"
            ) from exc
        try:
            seed = seed_override if seed_override is not None else self.seed
            return ClusterConfig(
                num_nodes=self.nodes,
                partitions_per_node=self.partitions_per_node,
                lsm=LSMConfig(**_parse_keys(_LSM.keys, self.lsm, "cluster.lsm")),
                bucketing=BucketingConfig(
                    **_parse_keys(_BUCKETING.keys, self.bucketing, "cluster.bucketing")
                ),
                cost=CostModelConfig(**_parse_keys(_COST.keys, self.cost, "cluster.cost")),
                strategy=self.strategy,
                **({} if seed is None else {"seed": seed}),
            )
        except ScenarioSpecError:
            raise
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(f"cluster: {exc}") from exc


@dataclass(frozen=True)
class SecondaryIndexSection(_Section):
    """One entry of ``[[datasets.secondary_indexes]]``."""

    name: str = _key(_STR)
    fields: Tuple[str, ...] = _key(_strings(nonempty=True))
    included_fields: Tuple[str, ...] = _key(_strings(), ())


@dataclass(frozen=True)
class DatasetSection(_Section):
    """``[[datasets]]``: a dataset created before traffic starts."""

    name: str = _key(_STR)
    primary_key: Tuple[str, ...] = _key(
        _strings(scalar_if_single=True, nonempty=True), ("k",), always=True
    )
    secondary_indexes: Tuple[SecondaryIndexSection, ...] = _key(_array(SecondaryIndexSection), ())


@dataclass(frozen=True)
class TPCHSection(_Section):
    """``[tpch]``: load the paper's TPC-H subset before traffic starts.

    The size is ``scale_factor`` (the whole load) or ``scale_factor_per_node``
    (times ``cluster.nodes``, so a ``nodes`` sweep axis grows the data with
    the cluster, as the paper loads a fixed amount per node); give at most
    one.  Neither loads scale factor 0.001.
    """

    scale_factor: Optional[float] = _key(_POSITIVE, None)
    scale_factor_per_node: Optional[float] = _key(_POSITIVE, None)
    tables: Tuple[str, ...] = _key(
        _strings("unknown table(s) {unknown}; TPC-H tables: {choices}", TABLES_BY_NAME.keys), ()
    )
    batch_size: int = _key(_POSITIVE_INT, 2000)

    def _validate(self, where: str) -> None:
        if self.scale_factor is not None and self.scale_factor_per_node is not None:
            raise ScenarioSpecError(
                f"{where}: give exactly one of scale_factor and scale_factor_per_node"
            )

    def total_scale_factor(self, nodes: int) -> float:
        """The scale factor loaded into a cluster of ``nodes`` nodes."""
        if self.scale_factor_per_node is not None:
            return self.scale_factor_per_node * nodes
        return 0.001 if self.scale_factor is None else self.scale_factor

    @property
    def loaded_tables(self) -> Tuple[str, ...]:
        """The tables the load creates (every table when ``tables`` is empty)."""
        return self.tables or tuple(DEFAULT_TABLES)


def _mix() -> _Kind:
    """A YCSB preset name, or an inline weight table kept as written."""
    preset = _choice(
        "unknown operation mix {value!r}; YCSB presets: {choices}, "
        "or give an inline table like {{read = 0.3, insert = 0.7}}",
        lambda: sorted(YCSB_MIXES),
        lambda value: value.upper() in YCSB_MIXES,
    )
    weight = _scalar(int, float, minimum=0, complaint="weights must be non-negative numbers")
    table = _table(
        _field_keys(OperationMix, lambda name: weight if name in OPERATIONS else _STR), echo=True
    )

    def parse(value: Any, where: str) -> Union[str, Dict[str, Any]]:
        if isinstance(value, str):
            return preset.parse(value, where)
        weights = table.parse(value, where)
        if not set(weights) & set(OPERATIONS):
            raise ScenarioSpecError(f"{where}: an inline mix needs at least one weight")
        return weights

    def emit(value: Union[str, Mapping[str, Any]]) -> Any:
        return value if isinstance(value, str) else dict(value)

    return _Kind("str or table", parse, emit, preset.allowed, table.keys)


def _build_mix(value: Union[str, Mapping[str, Any], None]) -> Any:
    return value if value is None or isinstance(value, str) else OperationMix(**value)


_MIX = _mix()
_DISTRIBUTION = _choice(
    "unknown key distribution {value!r}; choose from {choices}",
    lambda: sorted(DISTRIBUTIONS),
    lambda value: value.lower() in DISTRIBUTIONS,
)


@dataclass(frozen=True)
class _Resize(_Section):
    """Exactly one of add / remove / target_nodes — the keyword arguments of
    :meth:`repro.api.Database.rebalance` that a phase's ``rebalance`` table
    and a rebalance step both carry."""

    add: Optional[int] = _key(_POSITIVE_INT, None)
    remove: Optional[int] = _key(_POSITIVE_INT, None)
    target_nodes: Optional[int] = _key(_POSITIVE_INT, None)

    def resize_kwargs(self) -> Dict[str, int]:
        """The chosen resize as ``Database.rebalance`` keyword arguments."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(_Resize)
            if getattr(self, field.name) is not None
        }

    def _validate(self, where: str) -> None:
        if len(self.resize_kwargs()) != 1:
            raise ScenarioSpecError(f"{where}: give exactly one of add/remove/target_nodes")


@dataclass(frozen=True)
class WorkloadPhaseSpec(_Section):
    """``[[workload.phases]]``: one leg of the phased schedule."""

    name: str = _key(_STR)
    ops: int = _key(_INT)
    mix: Union[str, Mapping[str, Any], None] = _key(_MIX, None)
    keys: Optional[str] = _key(_DISTRIBUTION, None)
    rebalance: Optional[_Resize] = _key(_nested(_Resize), None)
    max_seconds: Optional[float] = _key(_scalar(int, float), None)

    def build_phase(self) -> Phase:
        """Compile into the driver's :class:`~repro.workload.schedule.Phase`."""
        values = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        values["mix"] = _build_mix(self.mix)
        values["rebalance"] = self.rebalance.resize_kwargs() if self.rebalance else None
        return Phase(**values)


@dataclass(frozen=True)
class WorkloadSection(_Section):
    """``[workload]``: the phased YCSB-style traffic to drive."""

    dataset: str = _key(_scalar(str, nonempty=True), "traffic")
    primary_key: str = _key(_STR, "k")
    initial_records: int = _key(_INT, 1000)
    payload_bytes: int = _key(_BYTES, 64)
    keys: str = _key(_DISTRIBUTION, "zipfian")
    default_ops: int = _key(_INT, 1000)
    batch_size: int = _key(_INT, 32)
    batch_jitter: float = _key(_scalar(int, float), 0.25)
    scan_span: int = _key(_INT, 16)
    mix: Union[str, Mapping[str, Any]] = _key(_MIX, "B")
    phases: Tuple[WorkloadPhaseSpec, ...] = _key(_array(WorkloadPhaseSpec), ())

    def _validate(self, where: str) -> None:
        """Schedule-level sanity: unique names, some traffic, sane rebalance count."""
        names = [phase.name for phase in self.phases]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ScenarioSpecError(
                f"{where}.phases: phase names must be unique (duplicated: {duplicates}); "
                "rename the repeated phases — reports and metrics are keyed by phase name"
            )
        if self.phases and all(phase.ops == 0 for phase in self.phases):
            raise ScenarioSpecError(
                f"{where}.phases: every phase has ops = 0, the schedule drives no traffic; "
                "give at least one phase a positive op count"
            )
        rebalancing = [phase.name for phase in self.rebalance_phases]
        if len(rebalancing) > 1:
            raise ScenarioSpecError(
                f"{where}.phases: at most one phase may carry a rebalance "
                f"(got {rebalancing}); split the scenario or use [[steps]] for "
                "additional resizes after the workload"
            )
        self.build_spec()  # validate the numeric ranges eagerly

    def build_spec(self) -> WorkloadSpec:
        """Compile into a :class:`~repro.api.WorkloadSpec` (with schedule)."""
        values = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        try:
            values["mix"] = _build_mix(self.mix)
            phases = tuple(phase.build_phase() for phase in values.pop("phases"))
            return WorkloadSpec(schedule=Schedule(phases) if phases else None, **values)
        except ValueError as exc:
            raise ScenarioSpecError(f"workload: {exc}") from exc

    @property
    def rebalance_phases(self) -> Tuple[WorkloadPhaseSpec, ...]:
        return tuple(phase for phase in self.phases if phase.rebalance is not None)


@dataclass(frozen=True)
class AutopilotSection(_Section):
    """``[autopilot]``: the control loop attached before traffic starts."""

    policy: str = _key(
        _choice("unknown policy {value!r} (registered policies: {choices})", available_policies),
        "cost_aware",
        always=True,
    )
    options: Mapping[str, Any] = _key(_free_table(bytes_suffix="_bytes"), factory=dict)
    check_every_ops: int = _key(_POSITIVE_INT, 50)
    cooldown_seconds: float = _key(_SECONDS, 0.0)
    hysteresis: int = _key(_POSITIVE_INT, 1)
    dry_run: bool = _key(_BOOL, False)
    max_rebalances: Optional[int] = _key(_INT, None)

    def _validate(self, where: str) -> None:
        try:  # conflicting/unknown policy options fail at spec time, not mid-run
            resolve_policy(self.policy, **self.options)
        except (ConfigError, TypeError) as exc:
            raise ScenarioSpecError(
                f"{where}.options: policy {self.policy!r} rejected these options: {exc}"
            ) from exc


@dataclass(frozen=True)
class TraceSection(_Section):
    """``[trace]``: attach a tracing session (spans + timeline) to the run.

    Presence of the section enables tracing (``enabled = false`` keeps the
    section but turns it off, e.g. for A/B-ing overhead); the resulting
    span tree and sampled series embed into the run's recording and join
    ``replay``'s determinism diff.
    """

    # ``enabled`` is always emitted: the section's presence is what turns
    # tracing on, so an all-defaults section must survive the round trip.
    enabled: bool = _key(_BOOL, True, always=True)
    #: Simulated seconds between timeline gauge samples.
    sample_interval_seconds: float = _key(_POSITIVE, 0.25)


_WINDOW = {"start": _SECONDS, "duration": _POSITIVE}
_SITE = _choice("unknown site {value!r}; valid sites: {choices}", lambda: FAULT_SITES)

#: Keys of the chaos engine's own records, in canonical order.
_RECORD_KEYS: Dict[type, Dict[str, _Key]] = {
    StragglerWindow: _field_keys(
        StragglerWindow, {"node": _STR, **_WINDOW, "multiplier": _scalar(int, float, minimum=1)}
    ),
    PartitionWindow: _field_keys(PartitionWindow, {**_WINDOW, "timeout_probability": _SECONDS}),
    CrashPlan: _field_keys(CrashPlan, {"after_seconds": _SECONDS, "site": _SITE}),
    LoadWindow: _field_keys(LoadWindow, {**_WINDOW, "factor": _POSITIVE}),
    RetryPolicy: _field_keys(
        RetryPolicy,
        {
            "max_attempts": _POSITIVE_INT,
            "backoff_base_seconds": _POSITIVE,
            "backoff_cap_seconds": _POSITIVE,
        },
    ),
}


@dataclass(frozen=True)
class ChaosSection(_Section):
    """``[chaos]``: deterministic fault injection for the run.

    Presence of the section arms the chaos engine (``enabled = false`` keeps
    the section but disarms it, for A/B-ing a scenario with and without
    chaos).  Every fault is declared on the *simulated* clock and every
    undeclared choice (which node straggles, which protocol site a crash
    lands on) is drawn from the run's dedicated ``chaos:<seed>`` RNG stream,
    so a chaos run records and replays exactly like a fault-free one:

    * ``[[chaos.stragglers]]`` — a node whose per-node work is multiplied
      inside a time window (slowest-node semantics spread the slowdown to
      every ingest/query/rebalance roll-up that touches it).
    * ``[[chaos.partitions]]`` — CC↔NC partition windows during which the
      client's directory view goes stale; lookups that land on a moved
      bucket pay a routing miss plus an optional timeout/backoff retry loop.
    * ``[[chaos.crashes]]`` — time-triggered kills at rebalance protocol
      sites (see ``repro.api.FAULT_SITES``), generalising per-step
      ``fault_sites``; pair with a recover step.
    * ``[[chaos.backpressure]]`` / ``[[chaos.bursts]]`` — windows that
      stretch feed ingestion / client service times by a factor.
    * ``[chaos.retry]`` — the client retry policy (attempt cap, capped
      exponential backoff) applied when a partition window forces retries.
    """

    # Like [trace], presence arms the engine, so ``enabled`` always survives
    # the round trip.
    enabled: bool = _key(_BOOL, True, always=True)
    stragglers: Tuple[StragglerWindow, ...] = _key(_array(StragglerWindow), ())
    random_stragglers: int = _key(_scalar(int, minimum=0), 0)
    straggler_horizon_seconds: float = _key(_POSITIVE, 10.0)
    partitions: Tuple[PartitionWindow, ...] = _key(_array(PartitionWindow), ())
    crashes: Tuple[CrashPlan, ...] = _key(_array(CrashPlan), ())
    backpressure: Tuple[LoadWindow, ...] = _key(_array(LoadWindow), ())
    bursts: Tuple[LoadWindow, ...] = _key(_array(LoadWindow), ())
    retry: Optional[RetryPolicy] = _key(_nested(RetryPolicy), None)

    def _validate(self, where: str) -> None:
        for position, window in enumerate(self.partitions):
            if window.timeout_probability >= 1.0:
                raise ScenarioSpecError(
                    f"{where}.partitions[{position}].timeout_probability: must be below 1.0 "
                    "(a certain timeout would retry forever), got "
                    f"{window.timeout_probability!r}"
                )
        retry = self.retry
        if retry is not None and retry.backoff_cap_seconds < retry.backoff_base_seconds:
            raise ScenarioSpecError(
                f"{where}.retry.backoff_cap_seconds: cap {retry.backoff_cap_seconds!r} "
                f"is below the base delay {retry.backoff_base_seconds!r}"
            )
        windows = [name for name, key in _keys(type(self)).items() if key.kind.many]
        if self.enabled and not (
            self.random_stragglers or any(getattr(self, name) for name in windows)
        ):
            raise ScenarioSpecError(
                f"{where}: the section declares no faults — add stragglers, "
                "partitions, crashes, backpressure, or bursts (or drop [chaos])"
            )

    def engine_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :meth:`repro.api.Database.enable_chaos`."""
        kwargs = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        del kwargs["enabled"]
        if self.retry is None:
            del kwargs["retry"]
        return kwargs


def _parse_axes(value: Any, where: str) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    """``[sweep.axes]``: ``axis -> [values]``, kept as ordered pairs."""
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    for axis, values in _require_mapping(value, where).items():
        axis_where = f"{where}.{axis}"
        SweepSection.validate_axis_name(axis, axis_where)
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ScenarioSpecError(
                f"{axis_where}: expected an array of values, got {type(values).__name__}"
            )
        if not values:
            raise ScenarioSpecError(f"{axis_where}: an axis needs at least one value")
        for position, item in enumerate(values):
            if not isinstance(item, (str, int, float, bool)):
                raise ScenarioSpecError(
                    f"{axis_where}[{position}]: axis values must be scalars "
                    f"(string/int/float/bool), got {type(item).__name__}"
                )
        if len(set(map(repr, values))) != len(values):
            raise ScenarioSpecError(f"{axis_where}: axis values must be unique")
        axes.append((axis, tuple(values)))
    return tuple(axes)


_AXES = _Kind(
    "table of axis = [values]",
    _parse_axes,
    lambda axes: {axis: list(values) for axis, values in axes},
)


@dataclass(frozen=True)
class SweepSection(_Section):
    """``[sweep]``: a parameter grid for ``python -m repro sweep``.

    Each key of ``[sweep.axes]`` is an *axis*: a shorthand alias
    (``strategy``, ``seed``, ``nodes``, ``workload_scale``, ``policy``) or a
    dotted path into the spec's canonical mapping form
    (``workload.initial_records``, ``autopilot.options.max_skew``,
    ``steps.0.target_nodes``), mapped to the list of values to try.  The
    sweep runs one cell per point of the cartesian product, in declared axis
    order, each cell being the base spec with that cell's overrides applied
    and the ``[sweep]`` section stripped — so every cell recording replays
    like any single-scenario recording.

    ``run``/``replay`` ignore the section entirely: a spec with a ``[sweep]``
    table still runs as the base scenario, which keeps one file usable both
    as a single run and as a grid.
    """

    #: Ordered ``(axis, values)`` pairs — the declared grid.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = _key(_AXES, ())
    #: Default worker-process count for the executor (CLI ``--jobs`` wins).
    jobs: int = _key(_POSITIVE_INT, 1)

    #: Shorthand axis names -> dotted canonical-mapping paths.
    AXIS_ALIASES = {
        "strategy": "cluster.strategy",
        "seed": "cluster.seed",
        "nodes": "cluster.nodes",
        "workload_scale": "cluster.workload_scale",
        "policy": "autopilot.policy",
    }

    @classmethod
    def validate_axis_name(cls, axis: str, where: str) -> str:
        """Resolve ``axis`` to its dotted path; raises on unknown names."""
        if axis in cls.AXIS_ALIASES:
            return cls.AXIS_ALIASES[axis]
        # A dotted path may start with any top-level section but this one.
        roots = [
            name
            for name, key in _keys(ScenarioSpec).items()
            if not key.header and key.kind.classes != (cls,)
        ]
        if "." in axis and axis.split(".", 1)[0] in roots:
            return axis
        raise ScenarioSpecError(
            f"{where}: unknown axis {axis!r}; use an alias "
            f"({', '.join(sorted(cls.AXIS_ALIASES))}) or a dotted spec path "
            f"starting with one of: {', '.join(roots)}"
        )

    def _validate(self, where: str) -> None:
        """Alias axes take their values' kind from the key they alias, so a
        bad value fails here with the axis path, not once per cell."""
        for axis, values in self.axes:
            if axis in self.AXIS_ALIASES:
                section, name = self.AXIS_ALIASES[axis].split(".")
                kind = _keys(_keys(ScenarioSpec)[section].kind.classes[0])[name].kind
                for value in values:
                    kind.parse(value, f"{where}.axes.{axis}")


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalanceStep(_Resize):
    """``{kind = "rebalance"}``: an explicit resize after the workload.

    ``concurrent_lineitem_rows`` fresh LineItem rows (drawn from the loaded
    TPC-H scale and seed) are written while the data moves (Figure 7c).
    """

    fault_sites: Tuple[str, ...] = _key(
        _strings("unknown site(s) {unknown}; valid sites: {choices}", lambda: FAULT_SITES), ()
    )
    expect_fault: bool = _key(_BOOL, False)
    concurrent_lineitem_rows: int = _key(_scalar(int, minimum=0), 0)

    kind = "rebalance"

    def _validate(self, where: str) -> None:
        super()._validate(where)
        if self.expect_fault and not self.fault_sites:
            raise ScenarioSpecError(
                f"{where}: expect_fault = true needs fault_sites naming the "
                "protocol site(s) to crash at (see repro.api.FAULT_SITES)"
            )
        if self.fault_sites and not self.expect_fault:
            raise ScenarioSpecError(
                f"{where}: fault_sites without expect_fault = true would crash "
                "the run when the injected fault fires; add expect_fault = true "
                "(and a recover step) or drop fault_sites"
            )


@dataclass(frozen=True)
class RecoverStep(_Section):
    """``{kind = "recover"}``: run rebalance recovery (Section V-D)."""

    kind = "recover"


@dataclass(frozen=True)
class QueryStep(_Section):
    """``{kind = "query"}``: run a TPC-H operator plan or a list of query specs.

    ``plan = "q1"`` runs a named operator plan (its answer feeds
    ``queries_identical_across_rebalance``); ``specs = ["q1", "q18"]`` runs
    the named access-pattern query specs the paper's Figures 8-9 time.  A
    step gives exactly one of the two.
    """

    plan: Optional[str] = _key(
        _choice("unknown query plan {value!r}; available: {choices}", REAL_PLANS.keys), None
    )
    specs: Tuple[str, ...] = _key(
        _strings("unknown query spec(s) {unknown}; available: {choices}", lambda: QUERY_NAMES),
        (),
    )

    kind = "query"

    def _validate(self, where: str) -> None:
        if (self.plan is None) == (not self.specs):
            raise ScenarioSpecError(f"{where}: give exactly one of plan and specs")


Step = Union[RebalanceStep, RecoverStep, QueryStep]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

_BUDGET_MS = _scalar(int, float, positive=True, complaint="budgets are positive milliseconds")


@dataclass(frozen=True)
class ChecksSection(_Section):
    """``[checks]``: assertions the run must satisfy (CLI exit status)."""

    min_autopilot_rebalances: Optional[int] = _key(_INT, None)
    expect_nodes: Optional[int] = _key(_INT, None)
    min_total_ops: Optional[int] = _key(_INT, None)
    rebalance_write_p99_gte_steady: bool = _key(_BOOL, False)
    datasets_unchanged_after_steps: bool = _key(_BOOL, False)
    queries_identical_across_rebalance: bool = _key(_BOOL, False)
    #: Simulated-seconds budget from the last chaos-injected crash to the end
    #: of the recovery pass that repaired it (trivially passes when no chaos
    #: crash fired).
    recovered_within_seconds: Optional[float] = _key(_POSITIVE, None)
    #: Cap on ``retry.routing_miss / ops.total`` — how often a stale
    #: directory view may land a lookup on a moved bucket.
    max_routing_miss_rate: Optional[float] = _key(_scalar(int, float), None)
    #: Per-phase write-p99 SLO budgets in milliseconds, e.g.
    #: ``write_p99_budget_ms = {steady = 5.0, rebalance = 25.0}``.  One check
    #: per phase: the phase's write p99 must not exceed its budget (a phase
    #: that recorded no writes fails — a silent workload is not within SLO).
    write_p99_budget_ms: Mapping[str, float] = _key(
        _table({phase: _Key(_BUDGET_MS, None) for phase in (PHASE_STEADY, PHASE_REBALANCE)}),
        factory=dict,
    )

    def _validate(self, where: str) -> None:
        rate = self.max_routing_miss_rate
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ScenarioSpecError(f"{where}.max_routing_miss_rate: a rate must be within [0, 1]")


# ---------------------------------------------------------------------------
# the scenario itself
# ---------------------------------------------------------------------------

#: The table of a document that carries the ``header`` keys.
_HEADER = "scenario"


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario document (see the module docstring)."""

    name: str = _key(_scalar(str, nonempty=True), header=True)
    description: str = _key(_STR, "", header=True)
    cluster: ClusterSection = _key(_nested(ClusterSection), factory=ClusterSection, always=True)
    datasets: Tuple[DatasetSection, ...] = _key(_array(DatasetSection), ())
    tpch: Optional[TPCHSection] = _key(_nested(TPCHSection), None)
    workload: Optional[WorkloadSection] = _key(_nested(WorkloadSection), None)
    autopilot: Optional[AutopilotSection] = _key(_nested(AutopilotSection), None)
    trace: Optional[TraceSection] = _key(_nested(TraceSection), None)
    chaos: Optional[ChaosSection] = _key(_nested(ChaosSection), None)
    steps: Tuple[Step, ...] = _key(_array(RebalanceStep, RecoverStep, QueryStep), ())
    checks: ChecksSection = _key(_nested(ChecksSection), factory=ChecksSection)
    sweep: Optional[SweepSection] = _key(_nested(SweepSection), None)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate a parsed document into a spec; raises
        :class:`ScenarioSpecError` with the offending section path."""
        document = _require_mapping(mapping, "scenario document")
        header, body = cls._header_and_body()
        if _HEADER not in document:
            raise ScenarioSpecError(f"scenario document: missing required key(s) {[_HEADER]}")
        values = _parse_keys(header, _require_mapping(document[_HEADER], _HEADER), _HEADER)
        values.update(_parse_keys(body, document, "", extra=(_HEADER,)))
        spec = cls(**values)
        names = [dataset.name for dataset in spec.datasets]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ScenarioSpecError(f"datasets: duplicate dataset name(s) {duplicates}")
        spec._validate_cross_section()
        return spec

    @classmethod
    def _header_and_body(cls) -> Tuple[Dict[str, _Key], Dict[str, _Key]]:
        """The ``[scenario]`` table's keys, and the top-level sections."""
        keys = _keys(cls)
        return (
            {name: key for name, key in keys.items() if key.header},
            {name: key for name, key in keys.items() if not key.header},
        )

    def _validate_cross_section(self) -> None:
        """Conflicts no single section can see."""
        if self.autopilot is not None and self.workload is not None:
            scheduled = [p.name for p in self.workload.rebalance_phases]
            if scheduled:
                raise ScenarioSpecError(
                    "autopilot: conflicts with the phase-scheduled rebalance in "
                    f"workload.phases {scheduled}: an autopilot and an explicit "
                    "mid-phase resize would fight over the cluster; drop the "
                    "[autopilot] section or the phase's rebalance key"
                )
        if (
            self.autopilot is not None
            and self.autopilot.dry_run
            and (self.checks.min_autopilot_rebalances or 0) > 0
        ):
            raise ScenarioSpecError(
                "checks.min_autopilot_rebalances: conflicts with autopilot.dry_run = true "
                "— a dry-run engine plans but never rebalances; drop dry_run or the check"
            )
        if self.checks.min_autopilot_rebalances is not None and self.autopilot is None:
            raise ScenarioSpecError(
                "checks.min_autopilot_rebalances: needs an [autopilot] section to count"
            )
        if self.checks.queries_identical_across_rebalance:
            # The check compares a plan's first pre-rebalance answer against
            # its first post-rebalance answer, so some plan must straddle a
            # completing (non-fault) rebalance step — otherwise it can never pass.
            rebalance_positions = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep) and not step.expect_fault
            ]
            straddling = any(
                isinstance(before, QueryStep)
                and isinstance(after, QueryStep)
                and before.plan is not None
                and before.plan == after.plan
                and any(i < rebalance < j for rebalance in rebalance_positions)
                for i, before in enumerate(self.steps)
                for j, after in enumerate(self.steps)
                if i < j
            )
            if not straddling:
                raise ScenarioSpecError(
                    "checks.queries_identical_across_rebalance: needs the same "
                    "query plan in [[steps]] both before and after a rebalance "
                    "step (one without expect_fault) — as written the check "
                    "could never pass"
                )
        global_hashing_names = ("hashing", "global", "globalhashing", "modulo")
        strategy_name = self.cluster.strategy.strip().lower()
        if strategy_name in global_hashing_names:
            faulted = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep) and step.fault_sites
            ]
            if faulted:
                raise ScenarioSpecError(
                    f"steps[{faulted[0]}].fault_sites: the global-hashing baseline "
                    "rebuilds datasets offline and has no Section V protocol "
                    "sites to fault; use dynahash, statichash, or consistenthash"
                )
        chaos_crashes = (
            self.chaos is not None and self.chaos.enabled and bool(self.chaos.crashes)
        )
        recover_positions = [
            position for position, step in enumerate(self.steps) if isinstance(step, RecoverStep)
        ]
        for position in recover_positions:
            earlier = self.steps[:position]
            if not chaos_crashes and not any(
                isinstance(step, RebalanceStep) and step.expect_fault for step in earlier
            ):
                raise ScenarioSpecError(
                    f"steps[{position}]: a recover step needs an earlier rebalance step "
                    "with expect_fault = true (or [[chaos.crashes]]) — otherwise "
                    "there is nothing to recover"
                )
        if chaos_crashes:
            if strategy_name in global_hashing_names:
                raise ScenarioSpecError(
                    "chaos.crashes: the global-hashing baseline has no "
                    "interruptible protocol window, so crash plans cannot fire "
                    "on it; use dynahash, statichash, or consistenthash"
                )
            rebalance_positions = [
                position
                for position, step in enumerate(self.steps)
                if isinstance(step, RebalanceStep)
            ]
            if not rebalance_positions:
                raise ScenarioSpecError(
                    "chaos.crashes: crash plans fire when an explicit [[steps]] "
                    "rebalance arms them — add a rebalance step (and a recover "
                    "step after it) or drop the crashes"
                )
            if not any(r < position for r in rebalance_positions for position in recover_positions):
                raise ScenarioSpecError(
                    "chaos.crashes: a chaos-interrupted rebalance leaves the "
                    "cluster mid-protocol — add a recover step after the "
                    "rebalance step"
                )
        for position, step in enumerate(self.steps):
            if isinstance(step, QueryStep) and self.tpch is None:
                raise ScenarioSpecError(
                    f"steps[{position}]: query steps run the TPC-H plans and need a "
                    "[tpch] section to load the tables they read"
                )
            if (
                isinstance(step, RebalanceStep)
                and step.concurrent_lineitem_rows
                and (self.tpch is None or "lineitem" not in self.tpch.loaded_tables)
            ):
                raise ScenarioSpecError(
                    f"steps[{position}].concurrent_lineitem_rows: writes into the "
                    "TPC-H lineitem table, which no [tpch] section loads"
                )
        if self.workload is None and not self.steps and self.tpch is None and not self.datasets:
            raise ScenarioSpecError(
                "scenario: nothing to do — give a [workload], [tpch], [[datasets]], "
                "or [[steps]] section"
            )

    # ------------------------------------------------------------- utilities

    def to_mapping(self) -> Dict[str, Any]:
        """The canonical, JSON-serialisable form (round-trips through
        :meth:`from_mapping`; embedded in recordings for ``replay``)."""
        header, body = self._header_and_body()
        return {_HEADER: _emit_keys(header, self), **_emit_keys(body, self)}

    def with_overrides(self, overrides: Iterable[Tuple[str, Any]]) -> "ScenarioSpec":
        """A copy with each ``(axis, value)`` pair set, re-validated whole.

        An axis is a :class:`SweepSection` alias (``seed``, ``strategy``,
        ``nodes``, ...) or a dotted path into the canonical mapping form
        (integer segments index arrays: ``steps.0.remove``).  Changing
        ``cluster.strategy`` drops the spec's ``strategy_options`` — they are
        specific to the strategy they were written for.  Every override goes
        through here: the CLI's ``--seed`` / ``--strategy`` and each sweep
        cell, so a combination the original spec passed but the override
        breaks (``--strategy hashing`` on a spec with fault sites) fails as a
        spec error naming the axis or section, not mid-run.
        """
        mapping = self.to_mapping()
        for axis, value in overrides:
            where = f"axis {axis}"
            path = SweepSection.validate_axis_name(axis, where)
            if path == "cluster.strategy" and value != self.cluster.strategy:
                mapping["cluster"].pop("strategy_options", None)
            _patch_path(mapping, path, value, where)
        return ScenarioSpec.from_mapping(mapping)

    def scaled_down(
        self,
        max_phase_ops: int = 60,
        max_initial_records: int = 240,
        max_tpch_scale: float = 0.0004,
    ) -> "ScenarioSpec":
        """A smoke-scale copy for fast round-trip tests: phase op counts,
        preload sizes, and the TPC-H scale factor are capped; everything else
        (seed, strategy, policy, steps, checks) is untouched.  Checks tuned
        for the full-scale run may not hold at smoke scale."""
        spec = self
        if spec.workload is not None:
            workload = replace(
                spec.workload,
                initial_records=min(spec.workload.initial_records, max_initial_records),
                default_ops=min(spec.workload.default_ops, max_phase_ops),
                phases=tuple(
                    replace(phase, ops=min(phase.ops, max_phase_ops))
                    for phase in spec.workload.phases
                ),
            )
            spec = replace(spec, workload=workload)
        if spec.tpch is not None and spec.tpch.total_scale_factor(spec.cluster.nodes) > max_tpch_scale:
            tpch = replace(spec.tpch, scale_factor=max_tpch_scale, scale_factor_per_node=None)
            spec = replace(spec, tpch=tpch)
        return spec


def _patch_path(mapping: Dict[str, Any], path: str, value: Any, where: str) -> None:
    """Set ``path`` (dotted; integer segments index arrays) in ``mapping``."""
    segments = path.split(".")
    target: Any = mapping
    for position, segment in enumerate(segments[:-1]):
        if isinstance(target, list):
            target = target[_array_index(segment, target, where)]
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
        raise ScenarioSpecError(f"{where}: cannot set {path!r} on a {type(target).__name__}")


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
