"""Simulated clocks.

The cluster simulator accounts time in *simulated seconds* derived from the
cost model rather than wall-clock time, so experiments are deterministic and
run in milliseconds of real time even when they model hours of cluster work.

Two clock flavours are provided:

* :class:`SimulatedClock` — a simple monotonically advancing counter used by a
  single logical timeline (e.g. one partition's storage activity).
* :class:`LamportClock` — a logical clock used to order events across
  CC and NC message exchanges (log records, rebalance phases) without needing
  a global physical time.

Discrete-event facade
---------------------
The same :class:`SimulatedClock` instance is the facade inline work and the
event scheduler share (see :mod:`repro.sim` and ``docs/CONCURRENCY.md``):

* **Inline callers** (op latencies charged through the metrics registry)
  call :meth:`SimulatedClock.advance` / :meth:`SimulatedClock.advance_many`;
  outside a scheduler one actor implicitly holds the whole timeline.
* **The event scheduler** (:class:`repro.sim.EventScheduler`) treats those
  same calls as *inline work charged by whichever actor currently holds the
  clock* and uses :meth:`SimulatedClock.advance_to` when dispatching a
  parked actor — a no-op when inline work already pushed time past the due
  point, which is precisely how two actors overlap on one timeline.
"""

from __future__ import annotations

from typing import Sequence


class SimulatedClock:
    """A monotonically non-decreasing simulated-time counter (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never flows backwards.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds!r}")
        self._now += seconds
        return self._now

    def advance_many(self, durations: "Sequence[float]") -> float:
        """Advance by each duration in order.

        Bit-identical to calling :meth:`advance` per duration — float
        addition is applied in the same order — with the batch validated by
        one ``min()``: a negative duration rejects it before the clock moves.
        Used by the batched op-sample sink of the metrics registry.
        """
        if durations and min(durations) < 0:
            raise ValueError(f"cannot advance clock by negative time {min(durations)!r}")
        now = self._now
        for seconds in durations:
            now += seconds
        self._now = now
        return now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` if it is in the future.

        Used to synchronise a node's local clock with the cluster-wide
        completion time of a barrier (e.g. "all partitions finished loading"),
        and by :class:`repro.sim.EventScheduler` when dispatching a parked
        actor — the "already past it" no-op case is what lets inline op
        latencies overlap a scheduled actor's wait.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock; only used by tests and benchmark setup."""
        if start < 0:
            raise ValueError("clock cannot be reset before time zero")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now={self._now:.3f})"


class LamportClock:
    """A Lamport logical clock for ordering distributed events.

    The CC and each NC own one instance.  ``tick`` is called for local events
    (forcing a log record, finishing a flush); ``observe`` is called when a
    message stamped with the sender's clock arrives.
    """

    def __init__(self) -> None:
        self._time = 0

    @property
    def time(self) -> int:
        return self._time

    def tick(self) -> int:
        """Record a local event and return its timestamp."""
        self._time += 1
        return self._time

    def observe(self, remote_time: int) -> int:
        """Merge a remote timestamp and record the receive event."""
        self._time = max(self._time, int(remote_time)) + 1
        return self._time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LamportClock(time={self._time})"
