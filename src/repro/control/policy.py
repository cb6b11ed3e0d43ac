"""Autopilot policies: turning observations into rebalance decisions.

A policy is anything with ``decide(observation, planner) -> PolicyDecision``
and a ``name``.  The built-in one, :class:`CostAwarePolicy`, simulates
candidate plans (re-target, add node, remove node) through the
:class:`~repro.control.planner.WhatIfPlanner` / cluster cost model and picks
the cheapest plan whose projected post-move balance clears a bar.

Policies are registered in a string-keyed registry mirroring the strategy
registry, so client code writes ``db.autopilot(policy="cost_aware")`` and
plugs in custom policies with :func:`register_policy`.

A fresh policy instance is built per autopilot engine, so a stateful custom
policy never leaks state between sessions and two same-seed runs traverse
identical state sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import ConfigError
from .observation import ClusterObservation
from .planner import PlanProjection, WhatIfPlanner

#: The four decision actions a policy can return.
ACTION_NONE = "none"
ACTION_ADD = "add"
ACTION_REMOVE = "remove"
ACTION_RETARGET = "retarget"

ACTIONS = (ACTION_NONE, ACTION_ADD, ACTION_REMOVE, ACTION_RETARGET)


@dataclass(frozen=True)
class PolicyDecision:
    """One policy verdict: do nothing, or rebalance to ``target_nodes``."""

    action: str
    target_nodes: Optional[int] = None
    reason: str = ""
    #: The winning what-if projection, when the policy simulated candidates.
    projection: Optional[PlanProjection] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(f"unknown decision action {self.action!r}; one of {ACTIONS}")
        if self.action != ACTION_NONE and (
            self.target_nodes is None or self.target_nodes < 1
        ):
            raise ConfigError(f"a {self.action!r} decision needs target_nodes >= 1")

    @property
    def wants_rebalance(self) -> bool:
        return self.action != ACTION_NONE

    def signature(self) -> Tuple[str, Optional[int]]:
        """The identity hysteresis streaks compare on."""
        return (self.action, self.target_nodes)


def no_action(reason: str = "") -> PolicyDecision:
    return PolicyDecision(ACTION_NONE, reason=reason)


def _action_for(target_nodes: int, current_nodes: int) -> str:
    if target_nodes > current_nodes:
        return ACTION_ADD
    if target_nodes < current_nodes:
        return ACTION_REMOVE
    return ACTION_RETARGET


class AutopilotPolicy:
    """Base class; subclasses implement :meth:`decide`."""

    name = "base"

    def decide(
        self, observation: ClusterObservation, planner: WhatIfPlanner
    ) -> PolicyDecision:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class CostAwarePolicy(AutopilotPolicy):
    """Simulate candidate plans and pick the cheapest that restores balance.

    When a trigger fires (byte skew above ``balance_bar``, capacity pressure,
    or sustained underutilization), the policy projects every candidate —
    re-target at the current size, add up to ``max_step`` nodes, remove up to
    ``max_step`` — through the what-if planner and picks the *cheapest*
    (estimated data-movement seconds) whose projected post-move balance
    clears ``balance_bar`` and whose projected peak utilization stays under
    ``capacity_high``.  A capacity-driven trigger must act even when no
    candidate fully clears the bar, so it falls back to the best-balance
    candidate; a pure skew trigger stays put instead of paying for a move
    that would not fix the skew.
    """

    name = "CostAware"

    def __init__(
        self,
        balance_bar: float = 1.3,
        node_capacity_bytes: Optional[int] = None,
        capacity_high: float = 0.85,
        capacity_low: float = 0.3,
        max_step: int = 1,
        min_nodes: int = 1,
        max_nodes: Optional[int] = None,
        consider_retarget: bool = True,
    ) -> None:
        if balance_bar < 1.0:
            raise ConfigError("balance_bar must be at least 1.0")
        if not 0.0 < capacity_low < capacity_high:
            raise ConfigError("need 0 < capacity_low < capacity_high")
        if max_step < 1:
            raise ConfigError("max_step must be at least 1")
        if node_capacity_bytes is not None and node_capacity_bytes <= 0:
            raise ConfigError("node_capacity_bytes must be positive")
        if min_nodes < 1:
            raise ConfigError("min_nodes must be at least 1")
        if max_nodes is not None and max_nodes < min_nodes:
            raise ConfigError("max_nodes must be at least min_nodes")
        self.balance_bar = balance_bar
        self.node_capacity_bytes = node_capacity_bytes
        self.capacity_high = capacity_high
        self.capacity_low = capacity_low
        self.max_step = max_step
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.consider_retarget = consider_retarget

    # ------------------------------------------------------------------ decide

    def decide(
        self, observation: ClusterObservation, planner: WhatIfPlanner
    ) -> PolicyDecision:
        nodes = observation.num_nodes
        triggers = self._triggers(observation)
        if not triggers:
            return no_action("balanced and within capacity")

        projections = planner.candidates(self._candidate_sizes(nodes, triggers))
        # A re-target that moves nothing is a no-op by construction —
        # Algorithm 2 already considers the layout balanced — so it can never
        # relieve a trigger and only burns a rebalance.
        feasible = [
            p
            for p in projections
            if p.feasible and not (p.target_nodes == nodes and p.buckets_moved == 0)
        ]
        cleared = [p for p in feasible if self._clears_bar(p)]
        # Capacity pressure should act even when nothing fully clears the
        # bar — but only with a plan that genuinely relieves it.  Without
        # the improvement guard a dominant hot bucket (which no node count
        # can spread) would trigger an endless scale-out.
        improving = [p for p in feasible if self._improves(p, observation)]
        if cleared:
            # The tentpole contract: cheapest plan whose projected post-move
            # balance (and capacity headroom) clears the bar.
            best = min(
                cleared,
                key=lambda p: (
                    p.estimated_seconds,
                    abs(p.target_nodes - nodes),
                    p.target_nodes,
                ),
            )
            picked = "cheapest clearing plan"
        elif "capacity" in triggers and improving:
            best = min(
                improving,
                key=lambda p: (
                    p.projected_balance_ratio,
                    p.estimated_seconds,
                    p.target_nodes,
                ),
            )
            picked = "best-balance plan (bar not cleared)"
        else:
            return no_action(
                f"triggered ({', '.join(triggers)}) but no candidate plan clears "
                f"balance bar {self.balance_bar:.2f} or improves the layout"
            )
        action = _action_for(best.target_nodes, nodes)
        return PolicyDecision(
            action,
            target_nodes=best.target_nodes,
            reason=(
                f"{'/'.join(triggers)}: {picked} -> {best.target_nodes} nodes "
                f"(~{best.estimated_seconds:.2f}s movement, projected balance "
                f"{best.projected_balance_ratio:.2f})"
            ),
            projection=best,
        )

    # ------------------------------------------------------------------ pieces

    def _triggers(self, observation: ClusterObservation) -> List[str]:
        triggers: List[str] = []
        if self.node_capacity_bytes is not None:
            if observation.utilization(self.node_capacity_bytes) >= self.capacity_high:
                triggers.append("capacity")
            elif (
                observation.num_nodes > self.min_nodes
                and observation.mean_utilization(self.node_capacity_bytes)
                <= self.capacity_low
            ):
                triggers.append("underutilized")
        if observation.node_balance_ratio > self.balance_bar:
            triggers.append("skew")
        return triggers

    def _candidate_sizes(self, nodes: int, triggers: Sequence[str]) -> List[int]:
        sizes: List[int] = []
        # Re-targeting spreads drifted buckets but adds no capacity, so it is
        # only a candidate for pure skew; capacity pressure must grow.
        if self.consider_retarget and "skew" in triggers and "capacity" not in triggers:
            sizes.append(nodes)
        grow = "capacity" in triggers or "skew" in triggers
        for step in range(1, self.max_step + 1):
            if grow and (self.max_nodes is None or nodes + step <= self.max_nodes):
                sizes.append(nodes + step)
            if "underutilized" in triggers and nodes - step >= self.min_nodes:
                sizes.append(nodes - step)
        return sizes

    def _clears_bar(self, projection: PlanProjection) -> bool:
        if projection.projected_balance_ratio > self.balance_bar:
            return False
        if self.node_capacity_bytes is not None:
            peak = projection.projected_max_node_bytes / self.node_capacity_bytes
            if peak > self.capacity_high:
                return False
        return True

    def _improves(
        self, projection: PlanProjection, observation: ClusterObservation
    ) -> bool:
        """Whether the plan meaningfully reduces peak bytes or skew (5%+)."""
        better_peak = (
            projection.projected_max_node_bytes <= observation.max_node_bytes * 0.95
        )
        better_balance = (
            projection.projected_balance_ratio <= observation.node_balance_ratio * 0.95
        )
        return better_peak or better_balance


# ---------------------------------------------------------------------------
# The policy registry (mirrors the rebalancing-strategy registry)
# ---------------------------------------------------------------------------

#: canonical name -> policy factory.
_POLICY_FACTORIES: Dict[str, Any] = {}
#: alias (lowercase) -> canonical name.
_POLICY_ALIASES: Dict[str, str] = {}


def register_policy(name: str, factory: "Callable[..., Any]", aliases: Sequence[str] = ()) -> None:
    """Register an autopilot policy under ``name`` (plus ``aliases``).

    ``factory`` is any callable returning a policy object (usually the policy
    class itself); extra keyword arguments given to :func:`policy_by_name` are
    forwarded to it.  Registration is case-insensitive and re-registering a
    name replaces the previous entry, so tests and downstream code can swap
    in instrumented policies.
    """
    if not name:
        raise ConfigError("policy name must not be empty")
    canonical = name.lower()
    _POLICY_FACTORIES[canonical] = factory
    _POLICY_ALIASES[canonical] = canonical
    for alias in aliases:
        _POLICY_ALIASES[alias.lower()] = canonical


def available_policies() -> List[str]:
    """Canonical names accepted by :func:`policy_by_name`, sorted."""
    return sorted(_POLICY_FACTORIES)


def policy_by_name(name: str, **kwargs: Any) -> AutopilotPolicy:
    """Resolve a registered policy name (or alias) to a fresh instance."""
    normalized = str(name).strip().lower()
    canonical = _POLICY_ALIASES.get(normalized)
    if canonical is None:
        raise ConfigError(
            f"unknown autopilot policy {name!r}; "
            f"valid choices: {', '.join(available_policies())} "
            f"(aliases: {', '.join(sorted(set(_POLICY_ALIASES) - set(_POLICY_FACTORIES)))})"
        )
    return _POLICY_FACTORIES[canonical](**kwargs)


def resolve_policy(policy: "str | AutopilotPolicy", **kwargs: Any) -> AutopilotPolicy:
    """Resolve a policy given as a registered name or an instance."""
    if isinstance(policy, str):
        return policy_by_name(policy, **kwargs)
    if kwargs:
        raise ConfigError("policy options are only valid with a policy name")
    if not hasattr(policy, "decide"):
        raise ConfigError(
            f"{policy!r} is not an autopilot policy (missing decide); "
            f"pass an instance or one of: {', '.join(available_policies())}"
        )
    return policy


register_policy("cost_aware", CostAwarePolicy, aliases=("costaware", "cost-aware", "cost"))
