"""The deterministic chaos engine: declarative fault injection on the bus.

A :class:`ChaosEngine` turns a scenario's ``[chaos]`` section into scheduled
adversity on the simulated clock:

* **straggler windows** scale a node's share of every slowest-node rollup
  (feed ingest, rebalance phases, scatter queries), so one slow NC genuinely
  drags cluster-level durations;
* **partition windows** freeze the client's directory view, so point reads
  can land on a moved bucket and pay a routing miss + refresh, with optional
  simulated RPC timeouts absorbed by capped exponential backoff;
* **crash plans** generalise the scripted ``fault_sites`` into time-triggered
  kills: once the clock passes ``after_seconds``, the next explicit rebalance
  is armed with a :class:`~repro.rebalance.operation.FaultInjector` at the
  planned site;
* **backpressure / burst windows** stretch feed ingest and client op latency
  by a factor, distorting the workload schedule without touching its RNG.

Every draw (unpinned straggler nodes, crash sites, timeout coin flips) comes
from one dedicated ``random.Random(f"chaos:{seed}")`` stream, so the
workload driver's stream is untouched and record → replay stays zero-diff.
Each window announces itself (``chaos.*``) exactly once, on its first
effect; the client retry path narrates every miss and backoff (``retry.*``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..common.errors import ConfigError
from ..common.hashutil import hash_key
from ..rebalance.operation import FAULT_SITES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.controller import DatasetRuntime
    from ..cluster.cost_model import CostModel
    from ..common.clock import SimulatedClock
    from ..common.events import EventBus

__all__ = [
    "ChaosEngine",
    "CrashPlan",
    "LoadWindow",
    "PartitionWindow",
    "RetryPolicy",
    "StragglerWindow",
]


@dataclass(frozen=True)
class StragglerWindow:
    """One node running slow for a simulated-time window.

    While ``start <= now < start + duration``, the node's entry in every
    per-node duration rollup is multiplied by ``multiplier`` — the
    slowest-node semantics of the cost model do the rest.  ``node=None``
    leaves the victim to a deterministic draw from the chaos RNG stream.
    """

    start: float
    duration: float
    multiplier: float
    node: Optional[str] = None


@dataclass(frozen=True)
class PartitionWindow:
    """A CC↔NC partition: the client's directory view goes stale.

    While the window is open, point reads route through a routing snapshot
    captured at the window's first read; keys whose bucket has since moved
    pay a routing miss (wasted hop + directory refresh).  Each read also
    risks a simulated RPC timeout with ``timeout_probability``, absorbed by
    the capped exponential backoff of the engine's :class:`RetryPolicy`.
    """

    start: float
    duration: float
    timeout_probability: float = 0.0


@dataclass(frozen=True)
class CrashPlan:
    """A scheduled mid-rehash crash at one ``FAULT_SITES`` site.

    Once the simulated clock passes ``after_seconds``, the next explicit
    rebalance is armed to crash at ``site`` (drawn from the chaos RNG when
    unpinned); recovery then proceeds through ``Database.recover()``.
    """

    after_seconds: float
    site: Optional[str] = None


@dataclass(frozen=True)
class LoadWindow:
    """A multiplicative load distortion (feed backpressure or client burst)."""

    start: float
    duration: float
    factor: float


@dataclass(frozen=True)
class RetryPolicy:
    """The client's capped-exponential-backoff parameters."""

    max_attempts: int = 3
    backoff_base_seconds: float = 0.001
    backoff_cap_seconds: float = 0.05

    def delay(self, attempt: int) -> float:
        """The backoff before retry ``attempt`` (1-based), capped."""
        return min(
            self.backoff_base_seconds * (2.0 ** (attempt - 1)),
            self.backoff_cap_seconds,
        )


class ChaosEngine:
    """Deterministic fault injection for one database session.

    Installed on ``cluster.chaos`` by :meth:`repro.api.Database.enable_chaos`;
    every hot path probes ``cluster.chaos is not None`` once, so sessions
    without chaos stay bit-identical to builds that predate it.  All draws
    come from the dedicated ``chaos:<seed>`` RNG stream and every unpinned
    choice (straggler victims, crash sites) is resolved at construction in
    declaration order, so the whole fault schedule is a pure function of the
    spec and the seed.
    """

    def __init__(
        self,
        *,
        clock: "SimulatedClock",
        cost: "CostModel",
        events: "EventBus",
        seed: int,
        node_ids: Sequence[str],
        stragglers: Sequence[StragglerWindow] = (),
        random_stragglers: int = 0,
        straggler_horizon_seconds: float = 10.0,
        partitions: Sequence[PartitionWindow] = (),
        crashes: Sequence[CrashPlan] = (),
        backpressure: Sequence[LoadWindow] = (),
        bursts: Sequence[LoadWindow] = (),
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not node_ids:
            raise ConfigError("chaos needs at least one node to torment")
        self._clock = clock
        self._cost = cost
        self._events = events
        self.retry = retry or RetryPolicy()
        self.rng = random.Random(f"chaos:{seed}")
        self.stragglers: List[StragglerWindow] = [
            self._pin_straggler(window, node_ids) for window in stragglers
        ]
        for _ in range(random_stragglers):
            # Fixed draw order (node, start, duration, multiplier) keeps the
            # schedule byte-stable across runs and PYTHONHASHSEED values.
            node = node_ids[self.rng.randrange(len(node_ids))]
            start = self.rng.uniform(0.0, straggler_horizon_seconds)
            duration = self.rng.uniform(
                0.1 * straggler_horizon_seconds, 0.5 * straggler_horizon_seconds
            )
            multiplier = self.rng.uniform(2.0, 6.0)
            self.stragglers.append(
                StragglerWindow(start=start, duration=duration, multiplier=multiplier, node=node)
            )
        self.partitions: List[PartitionWindow] = list(partitions)
        self.crashes: List[CrashPlan] = [self._pin_crash(plan) for plan in crashes]
        self.backpressure: List[LoadWindow] = list(backpressure)
        self.bursts: List[LoadWindow] = list(bursts)
        #: ``(site, clock reading)`` per fault that actually fired.
        self.faults: List[Tuple[str, float]] = []
        self._recovered_at: Optional[float] = None
        #: Windows that already announced themselves on the bus.
        self._announced: Set[Tuple[str, int]] = set()
        #: Frozen routing views per dataset while a partition window is open.
        self._stale: Dict[str, Any] = {}

    def _pin_straggler(self, window: StragglerWindow, node_ids: Sequence[str]) -> StragglerWindow:
        if window.node is not None:
            return window
        node = node_ids[self.rng.randrange(len(node_ids))]
        return StragglerWindow(
            start=window.start,
            duration=window.duration,
            multiplier=window.multiplier,
            node=node,
        )

    def _pin_crash(self, plan: CrashPlan) -> CrashPlan:
        if plan.site is not None:
            if plan.site not in FAULT_SITES:
                raise ConfigError(
                    f"unknown crash site {plan.site!r}; expected one of {', '.join(FAULT_SITES)}"
                )
            return plan
        site = FAULT_SITES[self.rng.randrange(len(FAULT_SITES))]
        return CrashPlan(after_seconds=plan.after_seconds, site=site)

    # ------------------------------------------------------------- stragglers

    def _active(self, windows: Sequence[Any]) -> List[Tuple[int, Any]]:
        now = self._clock.now
        return [
            (index, window)
            for index, window in enumerate(windows)
            if window.start <= now < window.start + window.duration
        ]

    def _announce(self, kind: str, index: int, **payload: Any) -> None:
        key = (kind, index)
        if key in self._announced:
            return
        self._announced.add(key)
        self._events.emit(kind, **payload)

    def scale_node_seconds(self, per_node_seconds: Mapping[str, float]) -> Mapping[str, float]:
        """Per-node durations with every active straggler's share inflated.

        Copy-on-write: when no straggler window is open (or none touches a
        node in the rollup) the caller's mapping is returned untouched.
        """
        scaled: Optional[Dict[str, float]] = None
        for index, window in self._active(self.stragglers):
            if window.node not in per_node_seconds:
                continue
            if scaled is None:
                scaled = dict(per_node_seconds)
            scaled[window.node] *= window.multiplier
            self._announce(
                "chaos.straggler",
                index,
                node=window.node,
                multiplier=window.multiplier,
                start=window.start,
                duration=window.duration,
            )
        return scaled if scaled is not None else per_node_seconds

    def active_stragglers(self) -> Tuple[Tuple[str, float], ...]:
        """``(node, multiplier)`` per open straggler window, declaration order."""
        return tuple(
            (window.node, window.multiplier) for _, window in self._active(self.stragglers)
        )

    # ---------------------------------------------------------- load shaping

    def ingest_factor(self) -> float:
        """Product of the open backpressure windows' factors (1.0 when none)."""
        factor = 1.0
        for index, window in self._active(self.backpressure):
            factor *= window.factor
            self._announce(
                "chaos.backpressure",
                index,
                factor=window.factor,
                start=window.start,
                duration=window.duration,
            )
        return factor

    def client_factor(self) -> float:
        """Product of the open burst windows' factors (1.0 when none)."""
        factor = 1.0
        for index, window in self._active(self.bursts):
            factor *= window.factor
            self._announce(
                "chaos.burst",
                index,
                factor=window.factor,
                start=window.start,
                duration=window.duration,
            )
        return factor

    # ------------------------------------------------------- partitions/retry

    def routing_penalty(
        self, runtime: "DatasetRuntime", key: Any, hashed: Optional[int] = None
    ) -> float:
        """Extra client latency for one point read under the current windows.

        Outside every partition window this is 0.0 (and any stale views are
        dropped — the partition healed).  Inside a window, the read routes
        through the frozen view first: a moved key costs a wasted hop plus a
        directory refresh and emits ``retry.routing_miss``; each read then
        risks simulated RPC timeouts, absorbed by the retry policy's capped
        exponential backoff (``retry.backoff`` per attempt).  ``hashed`` is
        ``hash_key(key)`` when the caller already has it: the read verbs pass
        the hash they routed the key with, so neither view hashes it again.
        """
        window_entry = next(iter(self._active(self.partitions)), None)
        if window_entry is None:
            if self._stale:
                self._stale.clear()
            return 0.0
        index, window = window_entry
        self._announce(
            "chaos.partition",
            index,
            start=window.start,
            duration=window.duration,
        )
        name = runtime.spec.name
        snapshot = self._stale.get(name)
        if snapshot is None:
            snapshot = self._stale[name] = runtime.routing_snapshot()
        penalty = 0.0
        if hashed is None:
            hashed = hash_key(key)
        (stale_partition,) = snapshot.partitions_of_hashes((hashed,))
        live_partition = runtime.partition_of_key(key, hashed)
        if stale_partition != live_partition:
            # Wasted hop to the old owner + a directory refresh round trip.
            penalty += 2.0 * self._cost.rpc_time(2)
            self._events.emit(
                "retry.routing_miss",
                dataset=name,
                stale_partition=stale_partition,
                live_partition=live_partition,
            )
            self._stale[name] = runtime.routing_snapshot()
        attempt = 1
        while (
            window.timeout_probability > 0.0
            and attempt <= self.retry.max_attempts
            and self.rng.random() < window.timeout_probability
        ):
            delay = self.retry.delay(attempt)
            penalty += delay + self._cost.rpc_time(2)
            self._events.emit(
                "retry.backoff", dataset=name, attempt=attempt, delay_seconds=delay
            )
            attempt += 1
        return penalty

    # ---------------------------------------------------------------- crashes

    def due_crash_sites(self) -> List[str]:
        """Consume every crash plan the clock has passed; arm their sites.

        Each consumed plan emits ``chaos.crash`` and is removed, so a plan
        kills exactly one rebalance.
        """
        now = self._clock.now
        due = [plan for plan in self.crashes if plan.after_seconds <= now]
        if not due:
            return []
        self.crashes = [plan for plan in self.crashes if plan.after_seconds > now]
        sites = []
        for plan in due:
            sites.append(plan.site)
            self._events.emit("chaos.crash", site=plan.site, at=now)
        return sites

    def on_fault(self, site: str) -> None:
        """Record that an armed crash actually fired mid-rebalance."""
        self.faults.append((site, self._clock.now))

    def charge_recovery(self, outcomes: Sequence[Any]) -> None:
        """Advance the clock for the recovery round trips and mark the time."""
        self._clock.advance(self._cost.rpc_time(2) * (1 + len(outcomes)))
        self._recovered_at = self._clock.now

    def recovery_seconds(self) -> Optional[float]:
        """Simulated seconds from the last fired fault to the last recovery."""
        if not self.faults or self._recovered_at is None:
            return None
        fault_at = self.faults[-1][1]
        if self._recovered_at < fault_at:
            return None
        return self._recovered_at - fault_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChaosEngine(stragglers={len(self.stragglers)}, "
            f"partitions={len(self.partitions)}, crashes={len(self.crashes)}, "
            f"faults={len(self.faults)})"
        )
