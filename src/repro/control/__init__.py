"""The autopilot control plane: metrics-driven automatic rebalancing.

The paper's core claim is that dynamic hashing makes rebalancing cheap enough
to do *often*; this package closes the loop from observed load to rebalance
decisions the way production shared-nothing stores do.  Three layers:

* :class:`ClusterObservation` — a frozen snapshot of per-node storage, balance
  and rebalance phase, assembled from the cluster state and the session's
  :class:`~repro.metrics.MetricsRegistry`;
* :class:`AutopilotPolicy` implementations (string-keyed registry mirroring
  the strategy registry) that turn an observation into a
  :class:`PolicyDecision`; the built-in :class:`CostAwarePolicy` simulates
  candidate plans through the :class:`WhatIfPlanner` and the cluster cost
  model;
* the :class:`Autopilot` engine — production guardrails (cooldown windows,
  hysteresis, max one rebalance in flight, dry-run mode) around executing the
  decisions through :meth:`repro.api.Database.rebalance`, emitting
  ``autopilot.*`` lifecycle events onto the session bus so metrics and client
  callbacks observe every decision like any other cluster event.

Client code reaches it through ``db.autopilot()`` (``policy="cost_aware"``
by default).
"""

from .autopilot import Autopilot, AutopilotDecision
from .observation import ClusterObservation
from .planner import PlanProjection, WhatIfPlanner
from .policy import (
    ACTION_ADD,
    ACTION_NONE,
    ACTION_REMOVE,
    ACTION_RETARGET,
    AutopilotPolicy,
    CostAwarePolicy,
    PolicyDecision,
    available_policies,
    policy_by_name,
    register_policy,
    resolve_policy,
)

__all__ = [
    "ACTION_ADD",
    "ACTION_NONE",
    "ACTION_REMOVE",
    "ACTION_RETARGET",
    "Autopilot",
    "AutopilotDecision",
    "AutopilotPolicy",
    "ClusterObservation",
    "CostAwarePolicy",
    "PlanProjection",
    "PolicyDecision",
    "WhatIfPlanner",
    "available_policies",
    "policy_by_name",
    "register_policy",
    "resolve_policy",
]
