"""The ``Database`` session façade — the canonical entry point of the API.

A :class:`Database` wraps one :class:`~repro.cluster.controller.SimulatedCluster`
behind an AsterixDB-shaped client surface: a context-manager session that
hands out typed :class:`~repro.api.dataset.Dataset` handles, runs resizes
through the configured rebalancing strategy, and exposes the cluster's
lifecycle event bus::

    from repro.api import Database, ClusterConfig

    with Database(ClusterConfig(num_nodes=4), strategy="dynahash") as db:
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(rows)
        db.on("rebalance.*", print)
        report = db.rebalance(remove=1)
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from ..cluster.controller import SimulatedCluster
from ..cluster.dataset import SecondaryIndexSpec
from ..cluster.reports import ClusterRebalanceReport, QueryReport
from ..common.config import ClusterConfig
from ..common.errors import ClusterError, ConfigError, FaultInjected
from ..common.events import Event, EventBus, Subscription
from ..metrics import MetricsRegistry
from ..query.executor import ClusterQueryExecutor, QuerySpec
from ..control.autopilot import Autopilot
from ..rebalance.operation import FaultInjector
from ..rebalance.recovery import RebalanceRecoveryManager, RecoveryOutcome
from ..sim import drain
from .dataset import Dataset
from .registry import resolve_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace import TraceSession


class Database:
    """An open session against a (simulated) shared-nothing cluster.

    Parameters
    ----------
    config:
        Cluster configuration; ``config.strategy`` may name a registered
        rebalancing strategy.
    strategy:
        Strategy instance or registered name (``"dynahash"``, ``"static"``,
        ``"consistent"``, ``"hashing"``); overrides ``config.strategy``.
        Extra ``strategy_options`` are forwarded to the strategy factory when
        a name is given (either here or via ``config.strategy``).
    workload_scale:
        Work multiplier for the cost model (paper-scale simulated durations
        from reduced-scale data).
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        strategy: "Optional[str | object]" = None,
        workload_scale: float = 1.0,
        strategy_options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        config = config or ClusterConfig()
        if strategy is None:
            strategy = config.strategy
        resolved = resolve_strategy(strategy, **dict(strategy_options or {}))
        self._cluster = SimulatedCluster(
            config, strategy=resolved, workload_scale=workload_scale
        )
        self._executor = ClusterQueryExecutor(self._cluster)
        self._metrics = MetricsRegistry().attach(self._cluster.events)
        self._autopilot: "Optional[Autopilot]" = None
        self._trace: "Optional[TraceSession]" = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the session; later verbs raise :class:`ClusterError`.

        Closing is idempotent and emits ``database.close`` once.  The metrics
        registry is detached from the bus but keeps its recorded telemetry, so
        ``db.metrics`` stays readable after close.
        """
        if not self._closed:
            if self._autopilot is not None:
                self._autopilot.stop()
            self._closed = True
            self._cluster.events.emit("database.close", datasets=self._cluster.dataset_names())
            if self._trace is not None:
                # The tracer closed its spans on database.close above; this
                # takes the final gauge sample and detaches everything.
                self._trace.finish()
            self._metrics.detach()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        self._check_open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("this Database session is closed")

    # ------------------------------------------------------------ escape hatch

    @property
    def cluster(self) -> SimulatedCluster:
        """The underlying simulated cluster (escape hatch; prefer the API)."""
        return self._cluster

    @property
    def events(self) -> EventBus:
        return self._cluster.events

    @property
    def executor(self) -> ClusterQueryExecutor:
        return self._executor

    @property
    def metrics(self) -> MetricsRegistry:
        """The session's telemetry: phase-tagged latency histograms,
        throughput counters, and gauges, fed by the event bus (see
        :mod:`repro.metrics`)."""
        return self._metrics

    @property
    def config(self) -> ClusterConfig:
        return self._cluster.config

    @property
    def strategy(self) -> Optional[object]:
        return self._cluster.strategy

    @property
    def num_nodes(self) -> int:
        return self._cluster.num_nodes

    @property
    def total_partitions(self) -> int:
        return self._cluster.total_partitions

    # --------------------------------------------------------------- events

    def on(self, pattern: str, callback: Callable[[Event], None]) -> Subscription:
        """Subscribe to lifecycle events (``fnmatch`` patterns, e.g.
        ``"rebalance.*"``); returns a cancellable subscription."""
        return self._cluster.events.on(pattern, callback)

    def once(self, pattern: str, callback: Callable[[Event], None]) -> Subscription:
        return self._cluster.events.once(pattern, callback)

    # -------------------------------------------------------------- datasets

    def create_dataset(
        self,
        name: str,
        primary_key: "str | Sequence[str]",
        secondary_indexes: Sequence[SecondaryIndexSpec] = (),
    ) -> Dataset:
        """Create a dataset partitioned across every node; returns its handle."""
        self._check_open()
        self._cluster.create_dataset(name, primary_key, secondary_indexes)
        return Dataset(self, name)

    def dataset(self, name: str) -> Dataset:
        """Handle for an existing dataset (raises if it does not exist)."""
        self._check_open()
        self._cluster.dataset(name)  # validates existence
        return Dataset(self, name)

    def __getitem__(self, name: str) -> Dataset:
        return self.dataset(name)

    def dataset_names(self) -> List[str]:
        self._check_open()
        return self._cluster.dataset_names()

    def datasets(self) -> Iterator[Dataset]:
        for name in self.dataset_names():
            yield Dataset(self, name)

    def drop_dataset(self, name: str) -> None:
        self._check_open()
        self._cluster.drop_dataset(name)

    # ------------------------------------------------------------- rebalance

    def rebalance(
        self,
        target_nodes: Optional[int] = None,
        *,
        add: Optional[int] = None,
        remove: Optional[int] = None,
        concurrent_rows: Optional[Mapping[str, Sequence[Mapping[str, Any]]]] = None,
        fault_sites: Optional[Iterable[str]] = None,
        arm_chaos: bool = True,
    ) -> ClusterRebalanceReport:
        """Resize the cluster with the configured strategy.

        Exactly one of ``target_nodes``, ``add``, ``remove`` selects the new
        size.  ``concurrent_rows`` maps dataset name -> rows ingested while
        the rebalance's data movement is in flight (Figure 7c).
        ``fault_sites`` injects protocol failures (see
        :data:`repro.rebalance.operation.FAULT_SITES`); the raised
        :class:`~repro.common.errors.FaultInjected` models the crash, after
        which :meth:`recover` drives the Section V-D recovery cases.  Fault
        injection requires a directory-routing strategy — the ``"hashing"``
        baseline has no protocol sites and rejects it with
        :class:`~repro.common.errors.ConfigError`.

        When a chaos engine is installed (:meth:`enable_chaos`), every crash
        plan the simulated clock has passed arms its site here too, merged
        with any explicit ``fault_sites``; ``arm_chaos=False`` opts a caller
        out (the autopilot uses it so scheduled crashes target explicit
        rebalances, not policy-triggered ones).
        """
        return drain(
            self.rebalance_steps(
                target_nodes,
                add=add,
                remove=remove,
                concurrent_rows=concurrent_rows,
                fault_sites=fault_sites,
                arm_chaos=arm_chaos,
            )
        )

    def rebalance_steps(
        self,
        target_nodes: Optional[int] = None,
        *,
        add: Optional[int] = None,
        remove: Optional[int] = None,
        concurrent_rows: Optional[Mapping[str, Sequence[Mapping[str, Any]]]] = None,
        fault_sites: Optional[Iterable[str]] = None,
        arm_chaos: bool = True,
    ) -> "Generator[Any, None, ClusterRebalanceReport]":
        """:meth:`rebalance` as a protocol generator, for the event scheduler.

        Takes the same arguments and yields every
        :class:`~repro.sim.SimSegment` of the protocol so an
        :class:`~repro.sim.EventScheduler` actor can interleave foreground
        traffic inside the movement windows.  The generator's return value is
        the same :class:`~repro.cluster.reports.ClusterRebalanceReport`.
        :meth:`rebalance` is this generator drained in place, so a drained
        and a scheduled resize report the same simulated seconds.
        """
        self._check_open()
        chosen = [value for value in (target_nodes, add, remove) if value is not None]
        if len(chosen) != 1:
            raise ConfigError("pass exactly one of target_nodes=, add=, remove=")
        if target_nodes is None:
            target_nodes = self.num_nodes + (add or 0) - (remove or 0)
        sites = list(fault_sites) if fault_sites else []
        chaos = self._cluster.chaos
        if chaos is not None and arm_chaos:
            sites.extend(chaos.due_crash_sites())
        injector = FaultInjector(sites) if sites else None
        try:
            report = yield from self._cluster.rebalance_to_steps(
                target_nodes,
                concurrent_rows=concurrent_rows,
                fault_injector=injector,
            )
        except FaultInjected as fault:
            if chaos is not None:
                chaos.on_fault(fault.site)
            raise
        return report

    def add_nodes(self, count: int = 1) -> ClusterRebalanceReport:
        return self.rebalance(add=count)

    def remove_nodes(self, count: int = 1) -> ClusterRebalanceReport:
        return self.rebalance(remove=count)

    # -------------------------------------------------------------- autopilot

    def autopilot(
        self,
        policy: "str | object" = "cost_aware",
        *,
        policy_options: Optional[Mapping[str, Any]] = None,
        start: bool = True,
        **engine_options: Any,
    ) -> Autopilot:
        """Attach an autopilot control loop to this session.

        ``policy`` is a registered policy name (``"cost_aware"``, the
        default; see :func:`repro.control.register_policy`) or a policy
        instance;
        ``policy_options`` are forwarded to the policy factory when a name is
        given, and ``engine_options`` (``check_every_ops``,
        ``cooldown_seconds``, ``hysteresis``, ``dry_run``,
        ``max_rebalances``) configure the engine's guardrails.

        The engine subscribes to the session's ``op.*`` events, so ordinary
        traffic drives its evaluations — a hotspot spike can trigger a
        rebalance mid-run with no explicit :meth:`rebalance` call.  One
        engine per session: attaching a new one stops its predecessor.
        """
        self._check_open()
        if self._autopilot is not None:
            self._autopilot.stop()
        pilot = Autopilot(
            self, policy, policy_options=policy_options, **engine_options
        )
        self._autopilot = self._cluster.autopilot = pilot
        if start:
            pilot.start()
        return pilot

    @property
    def autopilot_engine(self) -> Optional[Autopilot]:
        """The attached autopilot engine, if :meth:`autopilot` was called."""
        return self._autopilot

    # ----------------------------------------------------------------- tracing

    def start_trace(
        self,
        sample_interval_seconds: float = 0.25,
        clock_anchored_rebalance: bool = False,
    ) -> "TraceSession":
        """Attach a tracing session (spans + timeline gauges) to this run.

        Everything after this call is recorded into a span tree on the
        simulated clock plus sampled time-series (see :mod:`repro.trace`).
        One tracing session per database session: starting a new one
        finishes its predecessor.  The session is finished automatically on
        :meth:`close`; call ``finish()`` earlier to stop recording mid-run.
        Tracing never changes the metrics state — a traced and an untraced
        run of the same seed produce identical snapshots.

        ``clock_anchored_rebalance`` is accepted and ignored: the rebalance
        subtree has one layout (see :class:`repro.trace.spans.Tracer`).
        """
        self._check_open()
        from ..trace import TraceSession

        if self._trace is not None:
            self._trace.finish()
        self._trace = TraceSession(self, sample_interval_seconds=sample_interval_seconds).attach()
        return self._trace

    @property
    def trace_session(self) -> "Optional[TraceSession]":
        """The attached tracing session, if :meth:`start_trace` was called."""
        return self._trace

    # ------------------------------------------------------------------ chaos

    def enable_chaos(self, *, seed: Optional[int] = None, **plan: Any) -> Any:
        """Install a deterministic chaos engine on this session's cluster.

        ``plan`` takes the :class:`repro.chaos.ChaosEngine` schedule keywords
        (``stragglers``, ``partitions``, ``crashes``, ``backpressure``,
        ``bursts``, ``retry``, ``random_stragglers``,
        ``straggler_horizon_seconds``); ``seed`` defaults to the cluster
        config's seed and feeds the dedicated ``chaos:<seed>`` RNG stream.
        One engine per session — enabling again replaces the schedule.  The
        hot paths probe ``cluster.chaos is not None`` once per call, so a
        session that never enables chaos is bit-identical to one on a build
        without it.
        """
        self._check_open()
        from ..chaos import ChaosEngine

        engine = ChaosEngine(
            clock=self._metrics.clock,
            cost=self._cluster.cost,
            events=self._cluster.events,
            seed=self.config.seed if seed is None else seed,
            node_ids=[node.node_id for node in self._cluster.nodes],
            **plan,
        )
        self._cluster.chaos = engine
        return engine

    @property
    def chaos_engine(self) -> Optional[Any]:
        """The installed chaos engine, if :meth:`enable_chaos` was called."""
        return self._cluster.chaos

    def recover(self) -> List[RecoveryOutcome]:
        """Run rebalance recovery as a restarted coordinator would."""
        self._check_open()
        outcomes = RebalanceRecoveryManager(self._cluster).recover()
        self._cluster.events.emit(
            "recovery.complete",
            outcomes=[(o.rebalance_id, o.dataset, o.action) for o in outcomes],
        )
        if self._cluster.chaos is not None:
            # Recovery round trips cost simulated time only under chaos, so
            # non-chaos runs keep their recorded clocks bit for bit.
            self._cluster.chaos.charge_recovery(outcomes)
        return outcomes

    # ----------------------------------------------------------------- query

    def execute_spec(self, spec: QuerySpec) -> QueryReport:
        """Run an access-pattern query spec (the paper's figure mode)."""
        self._check_open()
        report = self._executor.execute_spec(spec)
        self._emit_query(spec.name, report)
        return report

    def execute(
        self, name: str, plan: Callable[..., Any], operator_depth_hint: int = 1
    ) -> "tuple[Any, QueryReport]":
        """Run a real operator plan (e.g. the TPC-H q1/q3/q6 plans)."""
        self._check_open()
        result, report = self._executor.execute_plan(name, plan, operator_depth_hint)
        self._emit_query(name, report)
        return result, report

    def _emit_query(self, name: str, report: QueryReport) -> None:
        self._cluster.events.emit(
            "op.query",
            query=name,
            latency_seconds=report.simulated_seconds,
            records=0,
        )

    # ------------------------------------------------------------ inspection

    def describe(self) -> Dict[str, Any]:
        """A structural snapshot of the session's cluster state."""
        self._check_open()
        snapshot = self._cluster.describe()
        snapshot["strategy"] = getattr(
            self._cluster.strategy, "name", None
        ) or (self._cluster.strategy and type(self._cluster.strategy).__name__)
        snapshot["node_ids"] = [node.node_id for node in self._cluster.nodes]
        return snapshot

    def storage_per_node(self) -> Dict[str, int]:
        self._check_open()
        return self._cluster.storage_per_node()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"Database({state}, nodes={self._cluster.num_nodes}, "
            f"datasets={self._cluster.dataset_names()})"
        )
