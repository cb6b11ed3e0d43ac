"""``repro.sim`` — the deterministic discrete-event concurrency core.

Until this package existed, every feed, workload phase, rebalance, and
autopilot evaluation ran to completion back-to-back on the
:class:`~repro.common.clock.SimulatedClock`; overlap was only approximated
by callbacks.  The scheduler here makes overlap real: actors are plain
Python generators that ``yield`` simulated durations, and the scheduler
interleaves them on one shared clock in strict ``(timestamp, seq)`` order.

See ``docs/CONCURRENCY.md`` for the actor model, the yield protocol, and
the determinism-by-stream-partitioning contract.
"""

from .scheduler import (
    Actor,
    EventScheduler,
    SimSchedulerError,
    SimSegment,
    drain,
    stream_rng,
)

__all__ = [
    "Actor",
    "EventScheduler",
    "SimSchedulerError",
    "SimSegment",
    "drain",
    "stream_rng",
]
