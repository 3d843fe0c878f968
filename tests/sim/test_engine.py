"""Tests for the discrete-event engine and its events."""

from __future__ import annotations

import pytest

from repro.exceptions import ClockError, ConfigurationError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import TimerHandle


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.schedule(3.0, lambda: fired.append("middle"))
        engine.run()
        assert fired == ["early", "middle", "late"]
        assert engine.now == 5.0

    def test_simultaneous_events_fire_in_scheduling_order(self):
        engine = Engine()
        fired = []
        for label in ("a", "b", "c"):
            engine.schedule(2.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10.0]

    def test_schedule_in_the_past_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: engine.schedule_at(0.5, lambda: None))
        with pytest.raises(ClockError):
            engine.run()

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(Exception):
            engine.schedule(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(1.0, lambda: fired.append("chained"))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == ["first", "chained"]
        assert engine.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_timer_handle_reports_time(self):
        engine = Engine()
        handle = engine.schedule(4.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        assert handle.time == 4.0


class TestRunControl:
    def test_run_until_stops_the_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        processed = engine.run(until=5.0)
        assert processed == 1
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_until_fires_the_events_due_at_exactly_until(self):
        engine = Engine()
        fired = []
        for time in (5.0, 5.0, 5.5):
            engine.schedule_at(time, lambda time=time: fired.append(time))
        assert engine.run(until=5.0) == 2
        assert fired == [5.0, 5.0]
        assert engine.now == 5.0 and engine.pending_events == 1

    def test_a_run_that_drains_before_until_ends_at_until(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        assert engine.run(until=8.0) == 1
        assert engine.now == 8.0
        assert engine.schedule(1.0, lambda: None).time == 9.0

    def test_run_max_events(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending_events == 2

    def test_a_drained_engine_resumes_from_its_clock(self):
        """``run`` ends when the queue empties; events scheduled afterwards
        are relative to the clock it left, and the next ``run`` fires them."""
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append(engine.now))
        assert engine.run() == 1
        engine.schedule(3.0, lambda: fired.append(engine.now))
        assert engine.run() == 1
        assert fired == [2.0, 5.0]
        assert engine.processed_events == 2

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_processed_events_counter(self):
        engine = Engine()
        for _ in range(4):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.processed_events == 4

    def test_run_until_before_now_is_rejected_and_changes_nothing(self):
        # Regression: the "next event is past until" branch assigned
        # ``now = until`` unconditionally, rewinding the clock, after which
        # ``schedule(0, ...)`` filed events before ones already fired.
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(10))
        engine.schedule(20.0, lambda: fired.append(20))
        engine.run(until=12.0)
        with pytest.raises(ClockError):
            engine.run(until=5.0)
        assert engine.now == 12.0
        assert engine.pending_events == 1
        assert engine.processed_events == 1
        engine.schedule(0.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10, 12.0, 20]

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def recurse():
            engine.run()

        engine.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            engine.run()


class TestDeterminism:
    """Engine-owned sequence numbers: no cross-engine scheduling history.

    Regression guard for the per-engine event counter — with a process-wide
    counter, an engine's trace (and anything derived from it, like tie-break
    order of simultaneous events) depended on how many events *other*
    engines had scheduled first.
    """

    @staticmethod
    def _trace():
        engine = Engine()
        fired = []

        def chain(label, depth):
            fired.append((engine.now, label, depth))
            if depth:
                engine.schedule(1.5, lambda: chain(label, depth - 1))

        handles = [
            engine.schedule(float(i % 3), lambda i=i: chain(f"e{i}", 2)) for i in range(5)
        ]
        handles[3].cancel()
        engine.run()
        return fired, [handle.sequence for handle in handles]

    def test_two_engines_back_to_back_produce_identical_traces(self):
        assert self._trace() == self._trace()

    def test_sequence_numbers_are_engine_local(self):
        noisy = Engine()
        for _ in range(7):
            noisy.schedule(1.0, lambda: None)
        fresh = Engine()
        assert fresh.schedule(1.0, lambda: None).sequence == 0



class TestNonFiniteTimes:
    """NaN compares false against everything, so ``nan < 0.0`` let it through
    and the entry it keyed broke the heap's order; infinity would park the
    clock where nothing can follow."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_a_delay_that_is_not_finite_and_non_negative(self, delay):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("delay", ["soon", None])
    def test_schedule_rejects_a_delay_that_is_not_a_number(self, delay):
        with pytest.raises(ConfigurationError):
            Engine().schedule(delay, lambda: None)

    def test_nan_delay_cannot_jump_the_queue(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("g"))
        with pytest.raises(ConfigurationError):
            engine.schedule(float("nan"), lambda: fired.append("f"))
        engine.run()
        assert fired == ["g"]

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_schedule_at_rejects_non_finite_times(self, time):
        engine = Engine()
        with pytest.raises(ClockError):
            engine.schedule_at(time, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("time", ["x", None, 1j])
    def test_schedule_at_rejects_a_time_that_is_not_a_number(self, time):
        engine = Engine()
        with pytest.raises(ClockError):
            engine.schedule_at(time, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_run_rejects_non_finite_until(self, until):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(ClockError):
            engine.run(until=until)
        assert engine.now == 0.0
        assert engine.pending_events == 1

    @pytest.mark.parametrize("until", ["x", 1j])
    def test_run_rejects_an_until_that_is_not_a_number(self, until):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(ClockError):
            engine.run(until=until)
        assert engine.now == 0.0
        assert engine.pending_events == 1
        assert engine.processed_events == 0


class TestOrderingContract:
    """What the heap guarantees, whatever it is made of."""

    def test_zero_delay_from_inside_a_timestamp_fires_after_those_queued(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.0, lambda: fired.append("late-comer"))

        engine.schedule(3.0, first)
        engine.schedule(3.0, lambda: fired.append("second"))
        engine.schedule_at(3.0, lambda: fired.append("third"))
        engine.run()
        assert fired == ["first", "second", "third", "late-comer"]
        assert engine.now == 3.0

    def test_same_timestamp_timer_cancelled_by_an_earlier_callback(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: (fired.append("a"), doomed.cancel()))
        doomed = engine.schedule(2.0, lambda: fired.append("doomed"))
        engine.schedule(2.0, lambda: fired.append("c"))
        assert engine.run() == 2
        assert fired == ["a", "c"]
        assert engine.processed_events == 2

    def test_max_events_inside_a_same_timestamp_group_resumes_with_the_rest(self):
        engine = Engine()
        fired = []
        for label in "abcd":
            engine.schedule(1.0, lambda label=label: fired.append(label))
        assert engine.run(max_events=3) == 3
        assert fired == ["a", "b", "c"]
        assert engine.now == 1.0
        assert engine.run() == 1
        assert fired == ["a", "b", "c", "d"]
        assert engine.processed_events == 4

    def test_callback_receives_the_scheduled_arguments(self):
        engine = Engine()
        calls = []
        engine.schedule(1.0, lambda *args: calls.append(args), "a", 2)
        engine.schedule_at(2.0, lambda *args: calls.append(args), "b")
        engine.schedule(3.0, lambda *args: calls.append(args))
        engine.run()
        assert calls == [("a", 2), ("b",), ()]

    def test_step_fires_one_event_skipping_cancelled_ones(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("cancelled")).cancel()
        engine.schedule(2.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        assert engine.step() is True
        assert fired == ["a"]
        assert (engine.now, engine.processed_events, engine.pending_events) == (2.0, 1, 1)

    def test_heap_entries_are_never_compared_beyond_time_and_sequence(self):
        class Unorderable:
            def __init__(self, log):
                self.log = log

            def __call__(self):
                self.log.append(self)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

            __gt__ = __le__ = __ge__ = __lt__

        engine = Engine()
        fired = []
        callbacks = [Unorderable(fired) for _ in range(8)]
        for callback in callbacks:
            engine.schedule(1.0, callback)
        engine.run()
        assert [id(callback) for callback in fired] == [id(callback) for callback in callbacks]
