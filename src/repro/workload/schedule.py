"""Phased workload schedules: warmup → steady → spike → ramp.

A :class:`Schedule` is an ordered list of :class:`Phase` objects the
:class:`~repro.workload.driver.WorkloadDriver` executes back to back.  Each
phase can override the workload's operation mix and key distribution, carry a
cluster resize (``rebalance={"add": 1}``) that runs *while* the phase's
traffic is applied, and cap its own length in simulated seconds — phases are
driven by the driver's metrics clock, which advances by each operation's
simulated latency, so a ``max_seconds`` bound is deterministic rather than
wall-clock dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .keygen import KeyGenerator
from .mixes import OperationMix

#: Keyword arguments a phase's ``rebalance`` mapping may carry (they are
#: forwarded to :meth:`repro.api.Database.rebalance`).
REBALANCE_KEYS = ("add", "remove", "target_nodes")


@dataclass(frozen=True)
class Phase:
    """One leg of a schedule: ``ops`` operations under one traffic shape."""

    name: str
    ops: int
    #: Mix override for this phase (name or instance); None inherits the spec's.
    mix: Optional[Union[str, OperationMix]] = None
    #: Key-distribution override (name or instance); None inherits the spec's.
    keys: Optional[Union[str, KeyGenerator]] = None
    #: Cluster resize executed while this phase's traffic is in flight, e.g.
    #: ``{"add": 1}``; reads interleave with the rebalance protocol phases and
    #: writes ride the concurrent-write replication path (Section V-A).
    rebalance: Optional[Mapping[str, int]] = None
    #: Stop the phase once it has consumed this much *simulated* time, checked
    #: before every op (not allowed on a rebalance phase, which runs all ops).
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phases need a name")
        if self.ops < 0:
            raise ValueError("ops must be non-negative")
        if self.rebalance is not None:
            unknown = sorted(set(self.rebalance) - set(REBALANCE_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown rebalance keys {unknown}; allowed: {list(REBALANCE_KEYS)}"
                )
            if len(self.rebalance) != 1:
                raise ValueError(
                    "phase rebalance needs exactly one of add=/remove=/target_nodes="
                )
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.max_seconds is not None and self.rebalance is not None:
            raise ValueError(
                f"phase {self.name!r}: max_seconds cannot be combined with rebalance "
                "(a rebalance phase runs all its ops); drop one of them"
            )


@dataclass(frozen=True)
class Schedule:
    """An ordered, validated sequence of phases."""

    phases: Tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a schedule needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"phase names must be unique, got {names}")

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def total_ops(self) -> int:
        return sum(phase.ops for phase in self.phases)

    def names(self) -> Sequence[str]:
        return [phase.name for phase in self.phases]


def steady_schedule(ops: int, **phase_options: Any) -> Schedule:
    """A single steady phase of ``ops`` operations."""
    return Schedule((Phase(name="steady", ops=ops, **phase_options),))

