"""Phases and schedules."""

import pytest

from repro.workload import Phase, Schedule, steady_schedule, storm_schedule


class TestPhase:
    def test_validation(self):
        with pytest.raises(ValueError):
            Phase(name="", ops=10)
        with pytest.raises(ValueError):
            Phase(name="p", ops=-1)
        with pytest.raises(ValueError):
            Phase(name="p", ops=1, max_seconds=0.0)

    def test_rebalance_keys_validated(self):
        Phase(name="p", ops=1, rebalance={"add": 1})  # valid
        with pytest.raises(ValueError, match="unknown rebalance keys"):
            Phase(name="p", ops=1, rebalance={"grow": 1})
        with pytest.raises(ValueError, match="exactly one"):
            Phase(name="p", ops=1, rebalance={"add": 1, "remove": 1})
        with pytest.raises(ValueError, match="exactly one"):
            Phase(name="p", ops=1, rebalance={})

    def test_max_seconds_rejected_on_rebalance_phase(self):
        # A rebalance phase draws and runs all its ops; a budget on it would
        # be silently ignored.
        Phase(name="p", ops=1, max_seconds=1.0)  # valid without a resize
        with pytest.raises(ValueError, match="max_seconds cannot be combined with rebalance"):
            Phase(name="p", ops=40, rebalance={"add": 1}, max_seconds=0.0001)


class TestSchedule:
    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError):
            Schedule(())

    def test_phase_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            Schedule((Phase(name="a", ops=1), Phase(name="a", ops=2)))

    def test_iteration_and_totals(self):
        schedule = Schedule((Phase(name="a", ops=10), Phase(name="b", ops=5)))
        assert len(schedule) == 2
        assert schedule.total_ops == 15
        assert [phase.name for phase in schedule] == ["a", "b"]


class TestBuilders:
    def test_steady_schedule(self):
        schedule = steady_schedule(123)
        assert schedule.names() == ["steady"]
        assert schedule.total_ops == 123

    def test_storm_schedule_shape(self):
        schedule = storm_schedule(warmup=10, steady=40, spike=30, ramp=5)
        assert schedule.names() == ["warmup", "steady", "spike", "ramp"]
        spike = schedule.phases[2]
        assert spike.rebalance == {"add": 1}  # default: add one node
        assert spike.keys == "hotspot"
        assert schedule.phases[0].keys == "uniform"
        assert schedule.total_ops == 85

    def test_storm_schedule_custom_rebalance(self):
        schedule = storm_schedule(rebalance={"remove": 1}, spike_keys="zipfian")
        spike = schedule.phases[2]
        assert spike.rebalance == {"remove": 1}
        assert spike.keys == "zipfian"
