"""The machine-readable event-bus contract.

Every event the system emits is declared here: its dotted name, the payload
keys emitters must provide (``required``), the keys they may provide
(``optional``), and the one-line description the architecture guide renders.
The contract is the single source of truth three consumers share:

* ``repro.api.events.EVENT_NAMES`` is derived from it (the public tuple
  client code and tests assert coverage against),
* the **reprolint** event rules (:mod:`repro.analysis`) statically cross-check
  every ``emit("literal", ...)`` call site and every ``on("pattern")``
  subscription in the tree against it,
* the event-bus section of ``docs/ARCHITECTURE.md`` is *generated* from it
  (``scripts/gen_event_docs.py``, with a ``--check`` sync gate in CI), so the
  prose can never drift from the code again.

Adding an event therefore means adding an :class:`EventSpec` to the right
family below, regenerating the docs, and letting the linter hold every
emitter to the declared payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "EVENT_CONTRACT",
    "EVENT_FAMILIES",
    "EventFamily",
    "EventSpec",
    "allowed_keys",
    "declared_events",
    "is_declared",
    "patterns_matching",
    "render_contract_markdown",
    "required_keys",
]


@dataclass(frozen=True)
class EventSpec:
    """One declared event: name, payload schema, and doc line."""

    name: str
    #: Keys every emission must carry.
    required: Tuple[str, ...]
    #: Keys an emission may carry (documented extras).
    optional: Tuple[str, ...] = ()
    #: One-line "when/what" description rendered into the architecture guide.
    description: str = ""

    def payload_keys(self) -> FrozenSet[str]:
        return frozenset(self.required) | frozenset(self.optional)


@dataclass(frozen=True)
class EventFamily:
    """A dotted-prefix family of events with shared docs prose."""

    key: str
    title: str
    #: Markdown paragraph(s) introducing the family in the architecture guide.
    intro: str
    events: Tuple[EventSpec, ...] = field(default_factory=tuple)


EVENT_FAMILIES: Tuple[EventFamily, ...] = (
    EventFamily(
        key="op",
        title="`op.*` — instrumented operations",
        intro=(
            "Emitted by the `Dataset` verbs (and `Database.execute*` for "
            "`op.query`); consumed by the metrics registry (histogram sample "
            "+ counters) and the autopilot (evaluation pacing). Every sample "
            "carries `latency_seconds` (the operation's simulated service "
            "time) and `records` (records touched — the batch size for "
            "`insert`, the rows returned for `scan`). The workload driver sends "
            "reads and updates, steady or mid-rebalance, as one `op.batch` per "
            "same-verb run instead of N single-op events, and a rebalance sends "
            "each move window's concurrent writes the same way; the registry's "
            "batch sink produces bit-identical state to the per-sample path."
        ),
        events=(
            EventSpec(
                "op.read",
                required=("dataset", "latency_seconds", "records"),
                optional=("found",),
                description="an instrumented `Dataset.get` completed; `found` says whether the key existed",
            ),
            EventSpec(
                "op.insert",
                required=("dataset", "latency_seconds", "records"),
                description="an instrumented `Dataset.insert` batch completed",
            ),
            EventSpec(
                "op.update",
                required=("dataset", "latency_seconds", "records"),
                description="a `Dataset.upsert` completed",
            ),
            EventSpec(
                "op.delete",
                required=("dataset", "latency_seconds", "records"),
                optional=("deleted",),
                description="an instrumented `Dataset.delete` completed; `deleted` counts the keys that existed",
            ),
            EventSpec(
                "op.scan",
                required=("dataset", "latency_seconds", "records"),
                description="an instrumented `Dataset.scan` was fully consumed; `records` is the rows returned",
            ),
            EventSpec(
                "op.query",
                required=("query", "latency_seconds", "records"),
                description="a query (plan or spec mode) completed; `query` names it",
            ),
            EventSpec(
                "op.batch",
                required=("op", "dataset", "latencies", "records_per_op", "count"),
                optional=("concurrent",),
                description=(
                    "one batched run of same-verb samples from the driver "
                    "pipeline, or one move window's concurrent writes "
                    "(`op=\"update\"`, `concurrent=True`: the Figure 7c path); "
                    "`latencies` is the per-op list, in arrival order"
                ),
            ),
        ),
    ),
    EventFamily(
        key="rebalance",
        title="`rebalance.*` — the resize protocol",
        intro=(
            "The paper's Section V protocol narrates itself on the bus: the "
            "cluster-level bracket (`rebalance.start` / `rebalance.complete`) "
            "flips the metrics phase between `steady` and `rebalance`, and "
            "every per-dataset operation reports its phases, commit point, "
            "and outcome. The same events, in the same order, come from a "
            "run-to-completion resize and from one stepped on the event "
            "scheduler: both run the one protocol generator."
        ),
        events=(
            EventSpec(
                "rebalance.start",
                required=("strategy", "old_nodes", "target_nodes"),
                description="`rebalance_to_steps` began; flips the metrics phase to `rebalance`",
            ),
            EventSpec(
                "rebalance.dataset.start",
                required=("dataset", "rebalance_id", "strategy"),
                description="one dataset's protocol operation began",
            ),
            EventSpec(
                "rebalance.bucket_move",
                required=("dataset", "rebalance_id", "bucket", "source", "destination"),
                optional=("records", "payload_bytes"),
                description=(
                    "one bucket's snapshot was shipped during data movement; "
                    "`source`/`destination` are partition ids (emitted only "
                    "when someone subscribes — the tracer's per-move feed)"
                ),
            ),
            EventSpec(
                "rebalance.phase",
                required=("dataset", "rebalance_id", "phase", "seconds"),
                description=(
                    "a protocol phase (`initialization` | `data_movement` | "
                    "`finalization`) finished"
                ),
            ),
            EventSpec(
                "rebalance.commit",
                required=("dataset", "rebalance_id", "buckets_moved"),
                description="the COMMIT record was forced (the point of no return)",
            ),
            EventSpec(
                "rebalance.abort",
                required=("dataset", "rebalance_id", "reason"),
                description="the operation aborted",
            ),
            EventSpec(
                "rebalance.dataset.complete",
                required=("dataset", "rebalance_id", "committed", "report"),
                description="one dataset's operation finished; `report` is its `RebalanceReport`",
            ),
            EventSpec(
                "rebalance.complete",
                required=("strategy", "old_nodes", "new_nodes", "committed", "report"),
                description=(
                    "the whole resize finished (`report` is the "
                    "`ClusterRebalanceReport`); flips the phase back to `steady`"
                ),
            ),
            EventSpec(
                "rebalance.error",
                required=("target_nodes", "error"),
                description="the resize raised (e.g. an injected fault)",
            ),
            EventSpec(
                "recovery.complete",
                required=("outcomes",),
                description="`db.recover()` finished; `outcomes` lists `(rebalance_id, dataset, action)`",
            ),
        ),
    ),
    EventFamily(
        key="autopilot",
        title="`autopilot.*` — the control loop",
        intro=(
            "The autopilot engine narrates its observe → decide → act loop. "
            "The metrics registry counts every `autopilot.*` event under its "
            "full name, so control-plane activity appears in "
            "`MetricsSnapshot.counters` like any other telemetry (that is "
            "what the `min_autopilot_rebalances` scenario check reads)."
        ),
        events=(
            EventSpec(
                "autopilot.start",
                required=("policy", "check_every_ops", "cooldown_seconds", "hysteresis", "dry_run"),
                description="engine attached to the op stream",
            ),
            EventSpec(
                "autopilot.decision",
                required=("policy", "action", "target_nodes", "reason", "outcome"),
                description="a policy decided to act (whatever the outcome)",
            ),
            EventSpec(
                "autopilot.skip",
                required=("reason", "action", "target_nodes"),
                description=(
                    "a guardrail (`cooldown` | `hysteresis` | `max_rebalances`) "
                    "vetoed the decision"
                ),
            ),
            EventSpec(
                "autopilot.dry_run",
                required=("action", "target_nodes", "reason"),
                description="dry-run mode: planned, not executed",
            ),
            EventSpec(
                "autopilot.rebalance.start",
                required=("action", "target_nodes", "reason"),
                description="the engine began executing a rebalance",
            ),
            EventSpec(
                "autopilot.rebalance.complete",
                required=("action", "target_nodes", "new_nodes", "committed", "report"),
                description="the policy-triggered rebalance finished",
            ),
            EventSpec(
                "autopilot.stop",
                required=("decisions", "rebalances"),
                description="engine detached (session close or replacement)",
            ),
        ),
    ),
    EventFamily(
        key="trace",
        title="`trace.*` — tracing hook points",
        intro=(
            "Emitted only when a tracing session (`repro.trace`) is attached: "
            "every emitter probes `has_subscribers` first, so an untraced run "
            "pays one cached dict hit per hook at most. The workload driver "
            "brackets each phase, the autopilot reports every evaluation "
            "(including the ones that decide to do nothing — "
            "`autopilot.decision` only fires on action), and the "
            "`TimelineRecorder` publishes each gauge sample it takes so tests "
            "and dashboards can watch the timeline live."
        ),
        events=(
            EventSpec(
                "trace.phase.start",
                required=("phase",),
                optional=("ops",),
                description="the workload driver entered a schedule phase",
            ),
            EventSpec(
                "trace.phase.end",
                required=("phase",),
                optional=("ops", "seconds"),
                description="the phase finished; `seconds` is its simulated duration",
            ),
            EventSpec(
                "trace.autopilot.evaluate",
                required=("policy", "action"),
                optional=("reason",),
                description=(
                    "one autopilot evaluation ran; `action` is the raw policy "
                    "verdict before guardrails (including `none`)"
                ),
            ),
            EventSpec(
                "trace.sample",
                required=("simulated_seconds", "values"),
                description=(
                    "the `TimelineRecorder` took a gauge sample; `values` maps "
                    "series name to the sampled value"
                ),
            ),
        ),
    ),
    EventFamily(
        key="chaos",
        title="`chaos.*` / `retry.*` — fault injection and the client retry path",
        intro=(
            "Emitted only when a scenario declares a `[chaos]` section "
            "(`repro.chaos`): every fault the engine injects narrates itself "
            "on the bus, and the client retry path reports each routing miss "
            "and backoff it absorbs. All chaos draws come from the dedicated "
            "`chaos:<seed>` RNG stream, so these events replay bit for bit. "
            "The metrics registry counts each `chaos.*` event under its full "
            "name and each `retry.*` event both under its full name and "
            "per-phase (`retry.routing_miss.rebalance`), which is what the "
            "`max_routing_miss_rate` check and the compare headline metrics "
            "read."
        ),
        events=(
            EventSpec(
                "chaos.straggler",
                required=("node", "multiplier", "start", "duration"),
                description=(
                    "a straggler window first slowed the named node; its "
                    "latency share scales by `multiplier` for the window"
                ),
            ),
            EventSpec(
                "chaos.partition",
                required=("start", "duration"),
                optional=("datasets",),
                description=(
                    "a CC↔NC partition window first froze the client's "
                    "directory view; routing may land on moved buckets"
                ),
            ),
            EventSpec(
                "chaos.crash",
                required=("site", "at"),
                description=(
                    "a scheduled crash armed the named `FAULT_SITES` site for "
                    "the next explicit rebalance"
                ),
            ),
            EventSpec(
                "chaos.backpressure",
                required=("factor", "start", "duration"),
                description="a backpressure window first stretched feed ingest by `factor`",
            ),
            EventSpec(
                "chaos.burst",
                required=("factor", "start", "duration"),
                description="a burst window first stretched client op latency by `factor`",
            ),
            EventSpec(
                "retry.routing_miss",
                required=("dataset", "stale_partition", "live_partition"),
                description=(
                    "a stale-directory read landed on the wrong partition; "
                    "the client refreshed its view and re-routed"
                ),
            ),
            EventSpec(
                "retry.backoff",
                required=("dataset", "attempt", "delay_seconds"),
                description=(
                    "a simulated RPC timeout triggered one capped-exponential "
                    "backoff attempt"
                ),
            ),
        ),
    ),
    EventFamily(
        key="lifecycle",
        title="Ingest, datasets, topology, session",
        intro=(
            "Lifecycle events from the controller, the data feeds, and the "
            "`Database` session itself."
        ),
        events=(
            EventSpec(
                "ingest.start",
                required=("dataset",),
                description="a data feed started ingesting",
            ),
            EventSpec(
                "ingest.complete",
                required=("dataset", "records", "splits", "report"),
                description="the feed finished (rows or tombstones); `report` is the `IngestReport`",
            ),
            EventSpec(
                "dataset.create",
                required=("dataset", "routing", "partitions"),
                description="a dataset was created (`routing` is `directory` | `modulo`)",
            ),
            EventSpec(
                "dataset.delete",
                required=("dataset", "keys", "deleted"),
                description="a `Dataset.delete` removed keys (the dataset-level record, beside `op.delete`)",
            ),
            EventSpec(
                "dataset.drop",
                required=("dataset",),
                description="a dataset was dropped",
            ),
            EventSpec(
                "node.provision",
                required=("node", "nodes"),
                description="a node was added (before data moved onto it); `nodes` is the new cluster size",
            ),
            EventSpec(
                "node.decommission",
                required=("node", "nodes"),
                description="a node was removed (after data moved away)",
            ),
            EventSpec(
                "database.close",
                required=("datasets",),
                description="the `Database` session was closed",
            ),
        ),
    ),
)

#: Flattened contract: event name -> spec, in family order.
EVENT_CONTRACT: Dict[str, EventSpec] = {
    spec.name: spec for family in EVENT_FAMILIES for spec in family.events
}


def declared_events() -> Tuple[str, ...]:
    """Every declared event name, in contract (family) order."""
    return tuple(EVENT_CONTRACT)


def is_declared(name: str) -> bool:
    return name in EVENT_CONTRACT


def required_keys(name: str) -> FrozenSet[str]:
    return frozenset(EVENT_CONTRACT[name].required)


def allowed_keys(name: str) -> FrozenSet[str]:
    return EVENT_CONTRACT[name].payload_keys()


def patterns_matching(pattern: str) -> Tuple[str, ...]:
    """Declared event names an ``fnmatch`` subscription pattern would reach."""
    return tuple(name for name in EVENT_CONTRACT if fnmatchcase(name, pattern))


# --------------------------------------------------------------------- docs


def _code(key: str) -> str:
    return f"`{key}`"


def render_contract_markdown() -> str:
    """The generated event-bus section body for ``docs/ARCHITECTURE.md``.

    ``scripts/gen_event_docs.py`` splices this between the sync markers; the
    reprolint docs gate (`--check`) fails CI when the file drifts from the
    contract.
    """
    lines = []
    for family in EVENT_FAMILIES:
        lines.append(f"### {family.title}")
        lines.append("")
        lines.append(family.intro)
        lines.append("")
        lines.append("| event | required payload | optional | when / what |")
        lines.append("|---|---|---|---|")
        for spec in family.events:
            required = ", ".join(_code(k) for k in spec.required)
            optional = ", ".join(_code(k) for k in spec.optional) or "—"
            lines.append(
                f"| `{spec.name}` | {required} | {optional} | {spec.description} |"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
