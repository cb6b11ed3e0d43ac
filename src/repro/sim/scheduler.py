"""The discrete-event scheduler: a binary heap of ``(timestamp, seq, entry)``.

Actors are generators.  Each ``yield`` hands a simulated duration back to the
scheduler ("I just did work that takes this long"); the scheduler parks the
actor and wakes it again once the shared :class:`~repro.common.clock
.SimulatedClock` reaches that point.  Between two wakes of one actor, every
other runnable actor gets the clock — which is exactly how a rebalance's
bucket moves and a workload driver's foreground reads end up interleaved on
one timeline.

Determinism
-----------
Three properties make a run bit-replayable:

* **Tiebreak by construction.**  Every heap entry is ``(timestamp, seq,
  entry)`` where ``seq`` is a monotone counter assigned at scheduling time.
  Two events due at the same instant therefore dispatch in scheduling order,
  never in object-identity or insertion-luck order (the ``det-heap-tiebreak``
  lint rule enforces the same pattern repo-wide).
* **One clock, forward only.**  Dispatch advances the shared clock to the
  entry's due time with ``advance_to`` — a no-op when inline work (op
  latencies charged through the metrics registry) already pushed the clock
  past it.  Observed dispatch times are monotone non-decreasing.
* **Partitioned RNG streams.**  An actor that needs randomness derives its
  own ``random.Random`` via :func:`stream_rng` (the ``"chaos:<seed>"``
  pattern from the chaos engine), so interleaving changes *when* an actor
  runs but never *which* draws it makes.

The yield protocol
------------------
An actor may yield:

* a non-negative ``int``/``float`` — simulated seconds of work just done
  (``0.0`` is a pure cooperative yield: re-enqueue at the current instant);
* any object with a ``seconds`` attribute (e.g. :class:`SimSegment`) — the
  labelled form the rebalance protocol uses so composing actors can see
  *what kind* of work each slice was.

The generator's ``return`` value becomes ``actor.result``.  An exception
raised by an actor propagates out of :meth:`EventScheduler.run` immediately
(mirroring :func:`drain`, where the first failure aborts the run); the
scheduler must not be reused after that.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple, TypeVar

from ..common.clock import SimulatedClock

__all__ = ["Actor", "EventScheduler", "SimSchedulerError", "SimSegment", "drain", "stream_rng"]

_T = TypeVar("_T")


class SimSchedulerError(RuntimeError):
    """An actor violated the yield protocol (negative or non-numeric delay)."""


def stream_rng(stream: str, seed: int) -> random.Random:
    """A named, seeded RNG stream (``random.Random(f"{stream}:{seed}")``).

    This is the chaos engine's ``"chaos:<seed>"`` pattern generalised: each
    actor draws from its own stream, so scheduling order can never reorder
    another actor's draws.  Streams with the same name and seed are
    bit-identical across processes (string seeding is not hash-salted).
    """
    return random.Random(f"{stream}:{seed}")


@dataclass(frozen=True)
class SimSegment:
    """One labelled slice of simulated work yielded by a protocol generator.

    ``kind`` names the protocol step (``"initialization"``, ``"move"``,
    ``"concurrent_writes"``, ``"finalization"``, ...); ``remaining`` counts
    how many more segments of the same kind the generator will yield, which
    lets a composing actor pace its own work across the window (the
    workload driver spreads foreground ops evenly over the ``remaining``
    bucket moves).
    """

    kind: str
    seconds: float
    remaining: int = 0


def drain(gen: "Generator[Any, Any, _T]") -> _T:
    """Run a protocol generator to completion and return its ``return`` value.

    Run-to-completion for the same generators the scheduler dispatches as
    actors: yielded segments are discarded and no clock is touched, so the
    caller stays the only thing charging simulated time.
    """
    try:
        while True:
            next(gen)
    except StopIteration as done:
        return done.value


class Actor:
    """One spawned generator: its name, liveness, and eventual result."""

    __slots__ = ("name", "gen", "finished", "result")

    def __init__(self, name: str, gen: Generator[Any, None, Any]) -> None:
        self.name = name
        self.gen = gen
        self.finished = False
        self.result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"Actor({self.name!r}, {state})"


class EventScheduler:
    """Dispatches heap-ordered events onto one shared simulated clock."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        #: The shared clock.  Passing the session's metrics clock makes the
        #: scheduler and the registry's inline latency charges one timeline.
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0
        #: Every dispatch as ``(due_timestamp, seq, label)``, in dispatch
        #: order — the property tests pin monotonicity and seq-order ties on
        #: this, and byte-identical logs across PYTHONHASHSEED reruns.
        self.dispatch_log: List[Tuple[float, int, str]] = []

    # ------------------------------------------------------------- scheduling

    @property
    def pending(self) -> int:
        """Number of events still waiting in the heap."""
        return len(self._heap)

    def _push(self, timestamp: float, payload: Any) -> int:
        seq = self._seq
        self._seq += 1
        # The seq tiebreak guarantees payloads are never compared.
        heapq.heappush(self._heap, (float(timestamp), seq, payload))
        return seq

    def call_at(self, timestamp: float, callback: Callable[[], Any], label: str = "call") -> int:
        """Schedule a plain callback at an absolute simulated time."""
        if timestamp < self.clock.now:
            raise SimSchedulerError(
                f"cannot schedule {label!r} at {timestamp!r}, before now={self.clock.now!r}"
            )
        return self._push(timestamp, (label, callback))

    def call_later(self, delay: float, callback: Callable[[], Any], label: str = "call") -> int:
        """Schedule a plain callback ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimSchedulerError(f"cannot schedule {label!r} with negative delay {delay!r}")
        return self._push(self.clock.now + delay, (label, callback))

    def spawn(self, name: str, gen: Generator[Any, None, Any]) -> Actor:
        """Register a generator actor; its first step runs at the current time."""
        actor = Actor(name, gen)
        self._push(self.clock.now, actor)
        return actor

    # --------------------------------------------------------------- dispatch

    @staticmethod
    def _delay_of(yielded: Any) -> float:
        """Normalise a yielded value to a non-negative duration in seconds."""
        if yielded is None:
            return 0.0
        seconds = getattr(yielded, "seconds", yielded)
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise SimSchedulerError(
                f"actors must yield durations (or objects with .seconds), got {yielded!r}"
            )
        if seconds < 0:
            raise SimSchedulerError(f"actors cannot yield negative durations ({seconds!r})")
        return float(seconds)

    def step(self) -> bool:
        """Dispatch the single next event; False when the heap is empty."""
        if not self._heap:
            return False
        timestamp, seq, payload = heapq.heappop(self._heap)
        # No-op when inline work already pushed the clock past the due time —
        # that slack *is* the overlap between actors.
        self.clock.advance_to(timestamp)
        if isinstance(payload, Actor):
            actor = payload
            self.dispatch_log.append((timestamp, seq, actor.name))
            try:
                yielded = next(actor.gen)
            except StopIteration as done:
                actor.finished = True
                actor.result = done.value
                return True
            self._push(self.clock.now + self._delay_of(yielded), actor)
            return True
        label, callback = payload
        self.dispatch_log.append((timestamp, seq, label))
        callback()
        return True

    def run(self) -> None:
        """Dispatch until the heap drains (all actors finished)."""
        while self.step():
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventScheduler(now={self.clock.now:.6f}, pending={self.pending}, "
            f"dispatched={len(self.dispatch_log)})"
        )
