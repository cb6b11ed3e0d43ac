"""The autopilot engine: guardrailed execution of policy decisions.

An :class:`Autopilot` closes the loop for one
:class:`~repro.api.database.Database` session: it subscribes to the session's
``op.*`` events, re-evaluates its policy every ``check_every_ops`` operations
(so *traffic itself* drives the control loop — no background thread, and
evaluation cadence is deterministic in the operation stream), and executes
the policy's decisions through ``db.rebalance`` behind production guardrails:

* **max one rebalance in flight** — evaluations during a rebalance are
  skipped (the registry phase says one is running, and a re-entrancy latch
  covers the op samples the rebalance itself emits);
* **cooldown windows** — after acting (or planning, in dry-run mode) the
  engine stays quiet for ``cooldown_seconds`` of simulated time;
* **hysteresis** — a decision must be re-affirmed on ``hysteresis``
  consecutive evaluations before it executes, so one noisy observation
  cannot flap the cluster;
* **dry-run mode** — decisions are logged and emitted but never executed.

Every decision emits ``autopilot.*`` lifecycle events onto the session bus,
so the metrics registry counts them (they appear in
:meth:`~repro.metrics.MetricsRegistry.snapshot`) and client callbacks observe
them like any other cluster event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, TYPE_CHECKING, Tuple

from ..common.errors import ConfigError
from .observation import ClusterObservation
from .planner import WhatIfPlanner
from .policy import PolicyDecision, resolve_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.database import Database
    from ..cluster.reports import ClusterRebalanceReport
    from ..common.events import Event, Subscription

#: Decision outcomes recorded in the autopilot log.
OUTCOME_EXECUTED = "executed"
OUTCOME_DRY_RUN = "dry_run"
OUTCOME_COOLDOWN = "cooldown"
OUTCOME_HYSTERESIS = "hysteresis"
OUTCOME_MAX_REBALANCES = "max_rebalances"


@dataclass(frozen=True)
class AutopilotDecision:
    """One logged decision: what the policy wanted and what the engine did."""

    seq: int
    simulated_seconds: float
    policy: str
    action: str
    target_nodes: Optional[int]
    reason: str
    outcome: str

    def signature(self) -> Tuple[str, Optional[int], str]:
        """The comparable identity (the determinism tests compare these)."""
        return (self.action, self.target_nodes, self.outcome)


class Autopilot:
    """Watches one database session and rebalances it automatically.

    Parameters
    ----------
    db:
        The open session to control.
    policy:
        Policy instance or registered name (``"cost_aware"``, the default);
        ``policy_options`` are forwarded to the factory when a name is given.
    check_every_ops:
        Evaluate the policy once per this many ``op.*`` events.
    cooldown_seconds:
        Minimum simulated seconds between executed (or dry-run) actions.
    hysteresis:
        Consecutive evaluations that must reach the same decision before it
        executes (1 = act immediately).
    dry_run:
        Log and emit decisions without executing any rebalance.
    max_rebalances:
        Optional cap on executed rebalances for the engine's lifetime.
    """

    def __init__(
        self,
        db: "Database",
        policy: "str | object" = "cost_aware",
        *,
        policy_options: Optional[Mapping[str, Any]] = None,
        check_every_ops: int = 50,
        cooldown_seconds: float = 0.0,
        hysteresis: int = 1,
        dry_run: bool = False,
        max_rebalances: Optional[int] = None,
    ) -> None:
        if check_every_ops < 1:
            raise ConfigError("check_every_ops must be at least 1")
        if cooldown_seconds < 0:
            raise ConfigError("cooldown_seconds must be non-negative")
        if hysteresis < 1:
            raise ConfigError("hysteresis must be at least 1")
        if max_rebalances is not None and max_rebalances < 0:
            raise ConfigError("max_rebalances must be non-negative")
        self.db = db
        self.policy = resolve_policy(policy, **dict(policy_options or {}))
        self.planner = WhatIfPlanner(db)
        self.check_every_ops = check_every_ops
        self.cooldown_seconds = cooldown_seconds
        self.hysteresis = hysteresis
        self.dry_run = dry_run
        self.max_rebalances = max_rebalances
        #: Every non-trivial decision, in order (the audit log).
        self.decisions: List[AutopilotDecision] = []
        #: Reports of the rebalances this engine executed.
        self.rebalance_reports: "List[ClusterRebalanceReport]" = []
        self._subscription: "Optional[Subscription]" = None
        self._ops_seen = 0
        self._last_check_at = 0
        self._last_action_at: Optional[float] = None
        self._streak_signature: Optional[Tuple[str, Optional[int]]] = None
        self._streak_count = 0
        self._stepping = False
        self._active = False

    # -------------------------------------------------------------- lifecycle

    @property
    def active(self) -> bool:
        return self._active

    @property
    def rebalances_triggered(self) -> int:
        return len(self.rebalance_reports)

    def start(self) -> "Autopilot":
        """Attach to the session's op stream; idempotent."""
        if self._active:
            return self
        self._active = True
        self._subscription = self.db.events.on("op.*", self._on_op)
        self.db.events.emit(
            "autopilot.start",
            policy=self.policy.name,
            check_every_ops=self.check_every_ops,
            cooldown_seconds=self.cooldown_seconds,
            hysteresis=self.hysteresis,
            dry_run=self.dry_run,
        )
        return self

    def stop(self) -> None:
        """Detach from the op stream; idempotent."""
        if not self._active:
            return
        self._active = False
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        self.db.events.emit(
            "autopilot.stop",
            decisions=len(self.decisions),
            rebalances=self.rebalances_triggered,
        )

    def __enter__(self) -> "Autopilot":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    # ------------------------------------------------------------ the op hook

    def _on_op(self, event: "Event") -> None:
        # A batched telemetry event carries many op samples; count them all so
        # the evaluation cadence tracks traffic volume, not event count.  The
        # driver runs one-op chunks while an engine is attached, so the trigger
        # points are exactly the ``ops_seen % check_every_ops == 0`` ones.
        if event.name == "op.batch":
            self._ops_seen += len(event.get("latencies", ())) or int(event.get("count", 1))
        else:
            self._ops_seen += 1
        if self._ops_seen - self._last_check_at >= self.check_every_ops:
            self._last_check_at = self._ops_seen
            self.step()

    # ------------------------------------------------------------- evaluation

    def step(self) -> Optional[AutopilotDecision]:
        """Evaluate the policy once; returns the logged decision, if any.

        Called automatically every ``check_every_ops`` operations, but also
        callable directly (e.g. from a driver loop or a test).  Evaluations
        during an in-flight rebalance are skipped — including the re-entrant
        ones triggered by the op samples the rebalance itself emits.
        """
        if self._stepping or not self._active or self.db.closed:
            return None
        self._stepping = True
        try:
            observation = ClusterObservation.capture(self.db)
            if observation.in_rebalance:
                return None
            decision = self.policy.decide(observation, self.planner)
            # Tracing hook point: report every evaluation, including the
            # no-action ones `autopilot.decision` never records.  Probed
            # first so untraced sessions skip the payload entirely.
            events = self.db.events
            if events.has_subscribers("trace.autopilot.evaluate"):
                events.emit(
                    "trace.autopilot.evaluate",
                    policy=self.policy.name,
                    action=decision.action,
                    reason=decision.reason,
                )
            if not decision.wants_rebalance:
                self._streak_signature = None
                self._streak_count = 0
                return None
            return self._apply(observation, decision)
        finally:
            self._stepping = False

    def _apply(
        self, observation: ClusterObservation, decision: PolicyDecision
    ) -> AutopilotDecision:
        if decision.signature() == self._streak_signature:
            self._streak_count += 1
        else:
            self._streak_signature = decision.signature()
            self._streak_count = 1

        outcome = self._guardrail_veto(observation)
        record = AutopilotDecision(
            seq=len(self.decisions),
            simulated_seconds=observation.simulated_seconds,
            policy=self.policy.name,
            action=decision.action,
            target_nodes=decision.target_nodes,
            reason=decision.reason,
            outcome=outcome or (OUTCOME_DRY_RUN if self.dry_run else OUTCOME_EXECUTED),
        )
        self.decisions.append(record)
        self.db.events.emit(
            "autopilot.decision",
            policy=record.policy,
            action=record.action,
            target_nodes=record.target_nodes,
            reason=record.reason,
            outcome=record.outcome,
        )
        if outcome is not None:
            self.db.events.emit(
                "autopilot.skip",
                reason=outcome,
                action=record.action,
                target_nodes=record.target_nodes,
            )
            return record
        if self.dry_run:
            # Dry-run actions consume the cooldown so the log is paced the
            # same way real actions would be.
            self._last_action_at = observation.simulated_seconds
            self._reset_streak()
            self.db.events.emit(
                "autopilot.dry_run",
                action=record.action,
                target_nodes=record.target_nodes,
                reason=record.reason,
            )
            return record
        self._execute(record, decision)
        return record

    def _guardrail_veto(self, observation: ClusterObservation) -> Optional[str]:
        """The guardrail that blocks this decision, or ``None`` to proceed."""
        if (
            self.max_rebalances is not None
            and self.rebalances_triggered >= self.max_rebalances
        ):
            return OUTCOME_MAX_REBALANCES
        if (
            self._last_action_at is not None
            and observation.simulated_seconds - self._last_action_at
            < self.cooldown_seconds
        ):
            return OUTCOME_COOLDOWN
        if self._streak_count < self.hysteresis:
            return OUTCOME_HYSTERESIS
        return None

    def _execute(self, record: AutopilotDecision, decision: PolicyDecision) -> None:
        self.db.events.emit(
            "autopilot.rebalance.start",
            action=record.action,
            target_nodes=record.target_nodes,
            reason=record.reason,
        )
        # Policy-triggered rebalances are exempt from chaos crash plans:
        # scheduled kills target the scenario's explicit rebalance steps.
        report = self.db.rebalance(target_nodes=record.target_nodes, arm_chaos=False)
        self.rebalance_reports.append(report)
        # Cooldown starts when the rebalance *finishes* (the metrics clock
        # advanced past its duration while it ran).
        self._last_action_at = self.db.metrics.clock.now
        self._reset_streak()
        self.db.events.emit(
            "autopilot.rebalance.complete",
            action=record.action,
            target_nodes=record.target_nodes,
            new_nodes=report.new_nodes,
            committed=report.committed,
            report=report,
        )

    def _reset_streak(self) -> None:
        self._streak_signature = None
        self._streak_count = 0

    # -------------------------------------------------------------- reporting

    def decision_trace(self) -> List[Tuple[str, Optional[int], str]]:
        """The comparable decision history (what determinism tests assert)."""
        return [decision.signature() for decision in self.decisions]

    def summary(self) -> str:
        lines = [
            f"autopilot[{self.policy.name}]: {len(self.decisions)} decisions, "
            f"{self.rebalances_triggered} rebalances"
            f"{' (dry-run)' if self.dry_run else ''}"
        ]
        for decision in self.decisions:
            target = f" -> {decision.target_nodes} nodes" if decision.target_nodes else ""
            lines.append(
                f"  t={decision.simulated_seconds:9.3f}s {decision.action}{target} "
                f"[{decision.outcome}] {decision.reason}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self._active else "stopped"
        return (
            f"Autopilot({self.policy.name!r}, {state}, "
            f"decisions={len(self.decisions)}, rebalances={self.rebalances_triggered})"
        )
