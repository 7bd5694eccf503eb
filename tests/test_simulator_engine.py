"""Discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.simulator import Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(2.0, fired.append, "early")
        sim.run_until(10.0)
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run_until(1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [3.5]

    def test_callback_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append((n, sim.now))
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until(10.0)
        assert fired == [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "first")
        sim.schedule(0.0, fired.append, "second")
        sim.run_until(0.0)
        assert fired == ["first", "second"]


class TestRunUntil:
    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run_until(3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_includes_events_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run_until(3.0)
        assert fired == ["edge"]

    def test_run_until_leaves_future_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "later")
        assert sim.run_until(5.0) == 0
        assert fired == []
        assert sim.run_until(10.0) == 1
        assert fired == ["later"]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_advance_moves_relative(self):
        sim = Simulator()
        sim.advance(7.0)
        assert sim.now == 7.0

    def test_run_until_clock_at_horizon_even_without_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_zero_delay_event_scheduled_at_horizon_fires_in_same_call(self):
        sim = Simulator()
        fired = []

        def at_horizon():
            fired.append(("edge", sim.now))
            sim.schedule(0.0, lambda: fired.append(("follow-up", sim.now)))

        sim.schedule(3.0, at_horizon)
        assert sim.run_until(3.0) == 2
        assert fired == [("edge", 3.0), ("follow-up", 3.0)]
        assert sim.now == 3.0

    def test_advance_fires_events_within_the_window(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(4.0, fired.append, "b")
        assert sim.advance(2.0) == 1
        assert sim.advance(2.0) == 1
        assert fired == ["a", "b"]
        assert sim.now == 4.0


class TestGuards:
    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run_until(1.0)
        assert sim.events_fired == 4
