"""Property tests for the discrete-event scheduler (repro.sim).

The scheduler's determinism contract (see the module docstring of
:mod:`repro.sim.scheduler`) decomposes into heap-drain totality, seq-order
dispatch of equal-time events, monotone observed fire times, and
hash-seed independence of the dispatch log.  Hypothesis drives the first
three over random actor populations; the last is pinned behaviourally by
rerunning the same schedule in subprocesses under different
``PYTHONHASHSEED`` salts and comparing the logged bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimulatedClock
from repro.sim import Actor, EventScheduler, SimSchedulerError, SimSegment, drain, stream_rng

# Non-negative, finite simulated durations.  Bounded so sums stay exact
# enough for monotonicity comparisons.
durations = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
# One actor = the sequence of durations it will yield.
actor_scripts = st.lists(st.lists(durations, max_size=8), min_size=1, max_size=8)


def scripted_actor(script):
    """A generator actor that yields each scripted duration, returns the count."""

    def gen():
        for delay in script:
            yield delay
        return len(script)

    return gen()


class TestDrain:
    @settings(max_examples=50, deadline=None)
    @given(actor_scripts)
    def test_random_actor_populations_always_drain(self, scripts):
        scheduler = EventScheduler()
        actors = [
            scheduler.spawn(f"actor-{index}", scripted_actor(script))
            for index, script in enumerate(scripts)
        ]
        scheduler.run()
        assert scheduler.pending == 0
        assert all(actor.finished for actor in actors)
        assert [actor.result for actor in actors] == [len(script) for script in scripts]
        # Each actor dispatches once per yield plus the StopIteration step.
        assert len(scheduler.dispatch_log) == sum(len(script) + 1 for script in scripts)

    @settings(max_examples=50, deadline=None)
    @given(actor_scripts, st.lists(durations, max_size=8))
    def test_mixed_actors_and_callbacks_drain(self, scripts, callback_delays):
        scheduler = EventScheduler()
        fired = []
        for index, script in enumerate(scripts):
            scheduler.spawn(f"actor-{index}", scripted_actor(script))
        for index, delay in enumerate(callback_delays):
            scheduler.call_later(delay, lambda index=index: fired.append(index), label=f"cb-{index}")
        scheduler.run()
        assert scheduler.pending == 0
        assert sorted(fired) == list(range(len(callback_delays)))


class TestTiebreak:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=20))
    def test_equal_time_events_dispatch_in_scheduling_order(self, count):
        scheduler = EventScheduler()
        order = []
        for index in range(count):
            scheduler.call_at(1.0, lambda index=index: order.append(index), label=f"cb-{index}")
        scheduler.run()
        assert order == list(range(count))
        seqs = [seq for _, seq, _ in scheduler.dispatch_log]
        assert seqs == sorted(seqs)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=5))
    def test_cooperative_zero_yields_round_robin_in_spawn_order(self, actors, rounds):
        # Every actor yields 0.0 `rounds` times: all events are due at t=0,
        # so the seq tiebreak alone decides the order — strict round-robin.
        scheduler = EventScheduler()
        trace = []

        def chatty(name):
            for _ in range(rounds):
                trace.append(name)
                yield 0.0

        for index in range(actors):
            scheduler.spawn(f"actor-{index}", chatty(index))
        scheduler.run()
        expected = [index for _ in range(rounds) for index in range(actors)]
        assert trace == expected

    @settings(max_examples=50, deadline=None)
    @given(actor_scripts)
    def test_seq_breaks_every_equal_timestamp_tie(self, scripts):
        scheduler = EventScheduler()
        for index, script in enumerate(scripts):
            scheduler.spawn(f"actor-{index}", scripted_actor(script))
        scheduler.run()
        log = scheduler.dispatch_log
        for (t_a, seq_a, _), (t_b, seq_b, _) in zip(log, log[1:]):
            if t_a == t_b:
                assert seq_a < seq_b


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(actor_scripts, st.lists(durations, max_size=8))
    def test_dispatch_timestamps_never_go_backwards(self, scripts, callback_delays):
        scheduler = EventScheduler()
        for index, script in enumerate(scripts):
            scheduler.spawn(f"actor-{index}", scripted_actor(script))
        for index, delay in enumerate(callback_delays):
            scheduler.call_later(delay, lambda: None, label=f"cb-{index}")
        scheduler.run()
        times = [timestamp for timestamp, _, _ in scheduler.dispatch_log]
        assert times == sorted(times)
        assert not times or scheduler.clock.now >= times[-1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(durations, min_size=1, max_size=10))
    def test_clock_lands_on_last_due_time(self, delays):
        scheduler = EventScheduler()

        def worker():
            for delay in delays:
                yield delay

        scheduler.spawn("worker", worker())
        scheduler.run()
        assert scheduler.clock.now == pytest.approx(sum(delays))


class TestYieldProtocol:
    def test_segment_objects_supply_their_seconds(self):
        scheduler = EventScheduler()

        def worker():
            yield SimSegment("move", 2.5, remaining=1)
            yield SimSegment("move", 1.5)

        scheduler.spawn("worker", worker())
        scheduler.run()
        assert scheduler.clock.now == pytest.approx(4.0)

    def test_none_is_a_pure_cooperative_yield(self):
        scheduler = EventScheduler()

        def worker():
            yield None
            yield None

        scheduler.spawn("worker", worker())
        scheduler.run()
        assert scheduler.clock.now == 0.0

    @pytest.mark.parametrize("bad", [-1.0, "soon", True, object()])
    def test_bad_yields_raise(self, bad):
        scheduler = EventScheduler()

        def worker():
            yield bad

        scheduler.spawn("worker", worker())
        with pytest.raises(SimSchedulerError):
            scheduler.run()

    def test_actor_exceptions_propagate(self):
        scheduler = EventScheduler()

        def worker():
            yield 1.0
            raise ValueError("boom")

        scheduler.spawn("worker", worker())
        with pytest.raises(ValueError, match="boom"):
            scheduler.run()

    def test_call_at_rejects_the_past(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        scheduler = EventScheduler(clock)
        with pytest.raises(SimSchedulerError):
            scheduler.call_at(1.0, lambda: None)

    def test_call_later_rejects_negative_delay(self):
        scheduler = EventScheduler()
        with pytest.raises(SimSchedulerError):
            scheduler.call_later(-0.5, lambda: None)

    def test_actor_repr_and_result(self):
        scheduler = EventScheduler()

        def worker():
            yield 1.0
            return "done"

        actor = scheduler.spawn("worker", worker())
        assert isinstance(actor, Actor)
        scheduler.run()
        assert actor.finished and actor.result == "done"


class TestDrainHelper:
    """``drain(gen)``: run-to-completion of a protocol generator, off the clock."""

    def test_returns_the_generators_return_value(self):
        assert drain(scripted_actor([1.0, SimSegment("move", 2.0), None])) == 3
        assert drain(scripted_actor([])) == 0

    def test_exceptions_propagate_from_the_point_they_were_raised(self):
        reached = []

        def worker():
            reached.append("first")
            yield 1.0
            reached.append("second")
            raise ValueError("boom")
            yield 2.0  # pragma: no cover - unreachable

        with pytest.raises(ValueError, match="boom"):
            drain(worker())
        assert reached == ["first", "second"]

    def test_never_touches_a_clock(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(5.0)

        def worker():
            yield SimSegment("move", 2.5)
            yield 1.5
            return scheduler.clock.now

        # Segments are discarded, not charged: the same generator spawned on
        # the scheduler would have advanced the clock by 4 seconds.
        assert drain(worker()) == 5.0
        assert scheduler.clock.now == 5.0 and scheduler.pending == 0


class TestStreamRng:
    def test_streams_are_independent_and_reproducible(self):
        a1 = [stream_rng("alpha", 7).random() for _ in range(4)]
        a2 = [stream_rng("alpha", 7).random() for _ in range(4)]
        b = [stream_rng("beta", 7).random() for _ in range(4)]
        assert a1 == a2
        assert a1 != b


# One fixed schedule, driven by partitioned RNG streams, printed as the
# dispatch log.  Run under different hash salts the output must be
# byte-identical: nothing in the scheduler may depend on object hashing.
_HASHSEED_PROBE = """\
from repro.sim import EventScheduler, stream_rng

scheduler = EventScheduler()

def worker(name, seed):
    rng = stream_rng(name, seed)
    for _ in range(20):
        yield rng.random() * 0.25

for index in range(6):
    scheduler.spawn(f"worker-{index}", worker(f"worker-{index}", 42))
scheduler.call_later(0.5, lambda: None, label="checkpoint")
scheduler.run()
for timestamp, seq, label in scheduler.dispatch_log:
    print(f"{timestamp!r} {seq} {label}")
"""


def _dispatch_log_bytes(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_PROBE],
        capture_output=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestHashSeedIndependence:
    def test_dispatch_log_bytes_identical_across_hash_salts(self):
        assert _dispatch_log_bytes("1") == _dispatch_log_bytes("4242")
