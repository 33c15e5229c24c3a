"""Edge-case tests for the DES kernel (beyond the basics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchedulingInPastError, SimulationError
from repro.simnet.kernel import _COMPACT_MIN_TOMBSTONES, Event, Simulator


class TestCallbackReentrancy:
    def test_call_at_from_inside_callback(self, sim):
        order = []

        def second():
            order.append(("second", sim.now))

        def first():
            order.append(("first", sim.now))
            sim.call_in(1.0, second)

        sim.call_at(1.0, first)
        sim.run()
        assert order == [("first", 1.0), ("second", 2.0)]

    def test_event_triggered_from_callback(self, sim):
        ev = sim.event()
        got = []

        def waiter():
            value = yield ev
            got.append(value)

        sim.process(waiter())
        sim.call_at(3.0, lambda: ev.succeed("from-callback"))
        sim.run()
        assert got == ["from-callback"]

    def test_process_spawned_from_callback(self, sim):
        results = []

        def child():
            yield 1.0
            results.append(sim.now)

        sim.call_at(2.0, lambda: sim.process(child()))
        sim.run()
        assert results == [pytest.approx(3.0)]


class TestConditionEdgeCases:
    def test_all_of_with_pre_processed_events(self, sim):
        a, b = sim.event(), sim.event()
        a.succeed(1)
        b.succeed(2)
        sim.run()  # both processed
        cond = sim.all_of([a, b])
        assert cond.triggered
        assert set(cond.value.values()) == {1, 2}

    def test_within_an_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()

        def proc():
            got = yield from sim.within(done, 1.0)
            return (sim.now, got)

        p = sim.process(proc())
        assert sim.run(until=p) == (0.0, True)

    def test_nested_conditions(self, sim):
        def proc():
            inner = sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])
            assert (yield from sim.within(inner, 10.0))
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(2.0)

    def test_all_of_fails_fast(self, sim):
        slow = sim.timeout(100.0)
        ev = sim.event()

        def failer():
            yield 1.0
            ev.fail(RuntimeError("nope"))

        def waiter():
            yield sim.all_of([slow, ev])

        sim.process(failer())
        p = sim.process(waiter())
        with pytest.raises(RuntimeError):
            sim.run(until=p)
        assert sim.now == pytest.approx(1.0)  # did not wait for `slow`


class TestClockDiscipline:
    def test_zero_delay_events_run_in_fifo_order(self, sim):
        order = []

        def proc(tag):
            yield 0.0
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_stable_during_callbacks(self, sim):
        stamps = []
        for _ in range(3):
            sim.call_at(5.0, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [5.0, 5.0, 5.0]

    def test_run_twice_resumes_where_left(self, sim):
        sim.timeout(1.0)
        sim.timeout(3.0)
        sim.run(until=2.0)
        assert sim.now == pytest.approx(2.0)
        sim.run()
        assert sim.now == pytest.approx(3.0)

    def test_float_precision_many_small_steps(self, sim):
        def proc():
            for _ in range(10_000):
                yield 0.001
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(10.0, rel=1e-9)


def _compaction_schedule(sim, doomed_count):
    """Keep-timers with tied times, plus ``doomed_count`` far-future
    timers that a process cancels at t=0.5, mid-``run``.  Returns the
    firing log and the event of the last keep-timer at t=8."""
    fired = []
    doomed = [sim.call_at(1e6, fired.append, "doomed")
              for _ in range(doomed_count)]
    last = None
    for i in range(12):
        # Ties at every time exercise the (time, priority, seq) order.
        last = sim.call_at(1.0 + (i // 3) * 2.5, fired.append, i)

    def canceller():
        yield 0.5
        for ev in doomed:
            sim.cancel(ev)

    sim.process(canceller())
    return fired, last


class TestCompactionDuringRun:
    """Cancelling enough timers from inside a running process compacts
    the agenda under ``run``'s feet; the loop must keep popping the
    live agenda, in the order a run without the doomed timers has."""

    DOOMED = 2 * _COMPACT_MIN_TOMBSTONES

    def test_order_matches_no_cancel_reference(self):
        reference = Simulator()
        expected, _ = _compaction_schedule(reference, 0)
        reference.run()

        sim = Simulator()
        fired, _ = _compaction_schedule(sim, self.DOOMED)
        sim.run()
        assert sim.agenda_compactions >= 1
        assert fired == expected == list(range(12))
        assert sim.events_cancelled == self.DOOMED
        assert sim.pending_events == 0

    def test_run_until_time_stops_after_compaction(self):
        sim = Simulator()
        fired, _ = _compaction_schedule(sim, self.DOOMED)
        sim.run(until=5.0)
        assert sim.agenda_compactions >= 1
        assert sim.now == 5.0
        assert fired == list(range(6))  # t = 1.0, 3.5 only
        sim.run()
        assert fired == list(range(12))

    def test_run_until_event_stops_after_compaction(self):
        sim = Simulator()
        fired, _ = _compaction_schedule(sim, self.DOOMED)
        marker = sim.timeout(6.0, value="marker")
        assert sim.run(until=marker) == "marker"
        assert sim.agenda_compactions >= 1
        assert sim.now == 6.0
        # A timeout is urgent: it runs before the call_at timers at 6.0.
        assert fired == list(range(6))
        sim.run()
        assert fired == list(range(12))


class TestYieldTargets:
    """What a process may yield, and the errors for everything else."""

    def _run_yield(self, sim, target):
        def proc():
            yield target
            return sim.now

        return sim.process(proc())

    def test_bool_is_a_zero_or_one_second_delay(self, sim):
        # bool is an int subclass: accepted as a delay, as it always was.
        p = self._run_yield(sim, True)
        assert sim.run(until=p) == 1.0
        q = self._run_yield(sim, False)
        assert sim.run(until=q) == 1.0

    @pytest.mark.parametrize("delay", [-1, -0.5])
    def test_negative_delay_raises(self, sim, delay):
        self._run_yield(sim, delay)
        with pytest.raises(SchedulingInPastError, match="negative timeout delay"):
            sim.run()

    def test_event_from_another_simulator_raises(self, sim):
        other = Simulator()
        self._run_yield(sim, other.event())
        with pytest.raises(SimulationError, match="another simulator"):
            sim.run()

    @pytest.mark.parametrize(
        # Also a raw generator (the ``yield sub(sim)`` slip for
        # ``yield from sub(sim)``) and a container.
        "junk", ["x", None, np.int64(1), (d for d in (1.0,)), [1.0]]
    )
    def test_unsupported_value_raises(self, sim, junk):
        self._run_yield(sim, junk)
        with pytest.raises(SimulationError, match="unsupported value"):
            sim.run()

    def test_numpy_float_is_a_delay(self, sim):
        p = self._run_yield(sim, np.float64(2.5))
        assert sim.run(until=p) == 2.5

    def test_processed_event_feeds_straight_in(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()

        def proc():
            value = yield ev
            return (value, sim.now)

        p = sim.process(proc())
        assert sim.run(until=p) == ("early", 0.0)


class TestEventConstruction:
    def test_timeout_repr_shows_delay(self, sim):
        assert "2.5" in repr(sim.timeout(2.5))

    def test_every_kernel_event_sets_every_slot(self, sim):
        # Timeout sets the Event fields inline; a slot it forgets
        # would raise here.
        def gen():
            yield 1.0

        proc = sim.process(gen())
        init = sim._agenda[0][3]
        events = [
            sim.event(), sim.timeout(1.0), sim.call_in(1.0, lambda: None),
            proc, init,
        ]
        for ev in events:
            for slot in Event.__slots__:
                getattr(ev, slot)
            assert ev._cancelled is False
        sim.run()


class TestNaNTimes:
    """NaN compares false with everything, so a ``time < now`` guard
    would let it through and move the clock to NaN; every entry point
    rejects it as it rejects the past."""

    NAN = float("nan")

    def test_call_at_rejects_nan(self, sim):
        sim.timeout(1.0)
        with pytest.raises(SchedulingInPastError, match="nan"):
            sim.call_at(self.NAN, lambda: None)
        with pytest.raises(SchedulingInPastError, match="nan"):
            sim.call_in(self.NAN, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 1.0

    def test_timeout_rejects_nan(self, sim):
        with pytest.raises(SchedulingInPastError, match="NaN timeout delay"):
            sim.timeout(self.NAN)
        assert sim.pending_events == 0

    def test_yield_nan_raises_and_keeps_the_clock(self, sim):
        def proc():
            yield 2.0
            yield float("nan")

        sim.process(proc())
        with pytest.raises(SchedulingInPastError, match="NaN timeout delay"):
            sim.run()
        assert sim.now == 2.0

    def test_schedule_event_rejects_nan(self, sim):
        from repro.simnet.kernel import NORMAL_PRIORITY

        ev = sim.event()
        with pytest.raises(SchedulingInPastError, match="NaN delay"):
            sim._schedule_event(ev, NORMAL_PRIORITY, delay=self.NAN)
        assert sim.pending_events == 0

    def test_run_until_nan_raises(self, sim):
        sim.timeout(1.0)
        sim.timeout(5.0)
        with pytest.raises(SchedulingInPastError, match="nan"):
            sim.run(until=self.NAN)
        assert sim.now == 0.0
        assert sim.pending_events == 2


class _Arg:
    """A weakly referenceable callback argument."""


class TestCallAtEvent:
    """A ``call_at`` event carries its callable and arguments and drops
    them once it fires or is cancelled, so callers that keep the event
    to cancel it later do not keep the arguments alive."""

    def test_argument_dies_once_fired(self, sim):
        import weakref

        arg = _Arg()
        ref = weakref.ref(arg)
        got = []
        ev = sim.call_at(1.0, got.append, arg)
        del arg
        assert ref() is not None
        sim.run()
        assert got and got[0] is ref()
        got.clear()
        assert ref() is None
        assert ev.processed

    def test_argument_dies_once_a_cancelled_entry_is_popped(self, sim):
        import weakref

        arg = _Arg()
        ref = weakref.ref(arg)
        ev = sim.call_at(1.0, lambda a: None, arg)
        del arg
        sim.cancel(ev)
        sim.run()
        assert ref() is None
        assert sim.events_cancelled == 1
        assert sim.events_processed == 0

    def test_argument_dies_once_a_cancelled_entry_is_compacted(self, sim):
        import weakref

        refs, events = [], []
        for _ in range(_COMPACT_MIN_TOMBSTONES):
            arg = _Arg()
            refs.append(weakref.ref(arg))
            events.append(sim.call_at(1e6, lambda a: None, arg))
        del arg
        for ev in events:
            sim.cancel(ev)
        assert sim.agenda_compactions == 1
        assert sim.pending_events == 0
        assert all(ref() is None for ref in refs)

    def test_cancel_after_firing_is_a_no_op(self, sim):
        fired = []
        ev = sim.call_in(1.0, fired.append, "x")
        sim.run()
        sim.cancel(ev)
        assert fired == ["x"]
        assert ev._cancelled is False
        assert sim._tombstones == 0
        assert sim.events_cancelled == 0
        assert sim.events_processed == 1


class TestTimersAreNotWaitable:
    """``call_at``/``call_in``/``wake_in`` timers run a callback and have
    no callback list: waiting on one is an error that names the timer.
    ``within`` rejects a ``Timeout`` too: it is triggered when made."""

    def _named_timer(self, sim, schedule):
        def on_tick():
            pass

        return schedule(sim, on_tick)

    @pytest.mark.parametrize("schedule", [
        lambda sim, fn: sim.call_at(1.0, fn),
        lambda sim, fn: sim.call_in(1.0, fn),
        lambda sim, fn: sim.wake_in(1.0, fn),
    ], ids=["call_at", "call_in", "wake_in"])
    def test_yielding_a_timer_raises(self, sim, schedule):
        timer = self._named_timer(sim, schedule)

        def waiter():
            yield timer

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="cannot wait on timer .*on_tick"):
            sim.run(until=proc)

    def test_within_a_timer_raises(self, sim):
        timer = self._named_timer(sim, lambda s, fn: s.call_in(1.0, fn))
        with pytest.raises(SimulationError, match="cannot wait on timer .*on_tick"):
            next(sim.within(timer, 2.0))

    def test_within_a_timeout_raises(self, sim):
        # A Timeout is triggered when made: raced against a shorter
        # deadline it would read as having happened at the deadline.
        def waiter():
            yield from sim.within(sim.timeout(5.0), 1.0)

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="cannot race <Timeout"):
            sim.run(until=proc)
        assert sim.now == 0.0

    def test_all_of_a_timer_raises(self, sim):
        timer = self._named_timer(sim, lambda s, fn: s.wake_in(1.0, fn))
        with pytest.raises(SimulationError, match="cannot wait on timer .*on_tick"):
            sim.all_of([timer])

    def test_timer_state_reads_as_before(self, sim):
        fired = []
        timer = sim.call_in(1.0, fired.append, "x")
        assert not timer.processed and timer.triggered and timer.ok
        assert timer.value is None
        sim.run()
        assert fired == ["x"] and timer.processed
        cancelled = sim.wake_in(1.0, fired.append, "y")
        sim.cancel(cancelled)
        assert not cancelled.processed
        sim.run()
        assert cancelled.processed and fired == ["x"]
