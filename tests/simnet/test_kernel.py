"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import random

import pytest

from repro.errors import SchedulingInPastError, SimStopped, SimulationError
from repro.simnet.kernel import Event, Resource, Simulator, Timeout


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(41)
        assert ev.triggered and ev.ok
        assert ev.value == 41

    def test_succeed_twice_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_after_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_unobserved_failure_surfaces_in_run(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_observed_failure_does_not_surface(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert isinstance(seen[0], RuntimeError)


class TestTimeout:
    def test_fires_at_delay(self, sim):
        t = sim.timeout(2.5)
        sim.run()
        assert sim.now == pytest.approx(2.5)
        assert t.processed

    def test_zero_delay_ok(self, sim):
        sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingInPastError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        t = sim.timeout(1.0, value="ping")
        sim.run()
        assert t.value == "ping"


class TestProcess:
    def test_yield_number_sleeps(self, sim):
        def proc():
            yield 1.0
            yield 2.0
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(3.0)

    def test_return_value(self, sim):
        def proc():
            yield 0.1
            return "done"

        p = sim.process(proc())
        assert sim.run(until=p) == "done"

    def test_yield_event_receives_value(self, sim):
        ev = sim.event()

        def trigger():
            yield 1.0
            ev.succeed(123)

        def waiter():
            got = yield ev
            return got

        sim.process(trigger())
        p = sim.process(waiter())
        assert sim.run(until=p) == 123

    def test_wait_for_child_process(self, sim):
        def child():
            yield 2.0
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result

        p = sim.process(parent())
        assert sim.run(until=p) == "child-result"

    def test_exception_in_process_fails_it(self, sim):
        def proc():
            yield 1.0
            raise ValueError("inside")

        p = sim.process(proc())
        with pytest.raises(ValueError, match="inside"):
            sim.run(until=p)

    def test_failed_event_raises_at_yield(self, sim):
        ev = sim.event()

        def failer():
            yield 0.5
            ev.fail(RuntimeError("late failure"))

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        sim.process(failer())
        p = sim.process(waiter())
        assert sim.run(until=p) == "caught late failure"

    def test_yield_unsupported_type_raises(self, sim):
        def proc():
            yield "nonsense"

        p = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_is_alive_transitions(self, sim):
        def proc():
            yield 1.0

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_already_processed_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()  # process the event fully

        def waiter():
            got = yield ev
            return got

        p = sim.process(waiter())
        assert sim.run(until=p) == "early"


class TestConditions:
    def test_within_first_wins(self, sim):
        def proc():
            # An event, not a Timeout: within rejects a Timeout.
            fast = sim.event()
            sim.call_in(1.0, fast.succeed, "fast")
            got = yield from sim.within(fast, 5.0)
            return (sim.now, got, fast.value)

        p = sim.process(proc())
        assert sim.run(until=p) == (pytest.approx(1.0), True, "fast")
        sim.run()
        # The deadline timer was cancelled, not left to fire.
        assert sim.events_cancelled == 1

    def test_within_deadline_first(self, sim):
        def proc():
            got = yield from sim.within(sim.event(), 1.0)
            return (sim.now, got)

        p = sim.process(proc())
        assert sim.run(until=p) == (pytest.approx(1.0), False)

    def test_all_of_waits_for_all(self, sim):
        def proc():
            a = sim.timeout(1.0, value="a")
            b = sim.timeout(3.0, value="b")
            got = yield sim.all_of([a, b])
            return (sim.now, len(got))

        p = sim.process(proc())
        now, n = sim.run(until=p)
        assert now == pytest.approx(3.0)
        assert n == 2

    def test_empty_all_of_succeeds_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_within_failure_propagates(self, sim):
        ev = sim.event()

        def failer():
            yield 0.5
            ev.fail(RuntimeError("bad"))

        def waiter():
            yield from sim.within(ev, 10.0)

        sim.process(failer())
        p = sim.process(waiter())
        with pytest.raises(RuntimeError, match="bad"):
            sim.run(until=p)

    def test_cross_simulator_event_rejected(self, sim):
        other = Simulator()
        ev = other.event()
        with pytest.raises(SimulationError):
            next(sim.within(ev, 1.0))


class TestRunControls:
    def test_run_until_time_stops_clock(self, sim):
        sim.timeout(10.0)
        sim.run(until=5.0)
        assert sim.now == pytest.approx(5.0)
        assert sim.pending_events == 1

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SchedulingInPastError):
            sim.run(until=0.5)

    def test_run_drains_agenda(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.pending_events == 0
        assert sim.now == pytest.approx(2.0)

    def test_stop_halts_run(self, sim):
        def stopper():
            yield 1.0
            sim.stop()

        sim.process(stopper())
        sim.timeout(100.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_run_until_event_on_stop_raises(self, sim):
        ev = sim.event()

        def stopper():
            yield 1.0
            sim.stop()

        sim.process(stopper())
        with pytest.raises(SimStopped):
            sim.run(until=ev)

    def test_run_until_untriggerable_event_raises(self, sim):
        ev = sim.event()
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=ev)

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.2)
        assert sim.peek() == pytest.approx(4.2)

    def test_step_on_empty_agenda_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_call_at_runs_callback(self, sim):
        seen = []
        sim.call_at(2.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert sim.now == pytest.approx(2.0)

    def test_call_in_relative(self, sim):
        seen = []

        def proc():
            yield 1.0
            sim.call_in(2.0, lambda: seen.append(sim.now))

        sim.process(proc())
        sim.run()
        assert seen == [pytest.approx(3.0)]

    def test_call_at_in_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SchedulingInPastError):
            sim.call_at(1.0, lambda: None)

    def test_equal_time_events_fifo(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.call_at(1.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]


def _periodic_order(start_loop) -> list:
    """Log of a 10 s periodic loop interleaved with NORMAL timers.

    NORMAL ``call_at`` timers sit at every multiple of 10 s (scheduled
    before the loop starts) and one more at t=0 is scheduled after it.
    ``start_loop(sim, log)`` starts the loop.
    """
    sim = Simulator()
    log: list = []
    for k in range(4):
        sim.call_at(10.0 * k, log.append, f"call@{10 * k}")
    start_loop(sim, log)
    sim.call_at(0.0, log.append, "late-call@0")
    sim.run(until=35.0)
    return log


def _process_loop(sim, log):
    def loop():
        while True:
            log.append(f"beat@{sim.now:g}")
            yield 10.0

    sim.process(loop())


def _timer_loop(schedule):
    def start(sim, log):
        def beat():
            log.append(f"beat@{sim.now:g}")
            schedule(sim, 10.0, beat)

        schedule(sim, 0.0, beat)

    return start


class TestWakeIn:
    def test_runs_callback_with_args_after_delay(self, sim):
        seen = []
        sim.wake_in(2.5, lambda *a: seen.append((sim.now, a)), "x", 1)
        sim.run()
        assert seen == [(2.5, ("x", 1))]

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_rejects_negative_and_nan_delay(self, sim, delay):
        with pytest.raises(SchedulingInPastError):
            sim.wake_in(delay, lambda: None)

    def test_cancelled_timer_never_fires(self, sim):
        seen = []
        sim.cancel(sim.wake_in(1.0, seen.append, "x"))
        sim.run()
        assert seen == []

    def test_timer_loop_keeps_the_yield_order(self):
        reference = _periodic_order(_process_loop)
        # The process's start and its timeouts are URGENT: each beat
        # runs before the NORMAL timers of its instant.
        assert reference[:4] == ["beat@0", "call@0", "late-call@0", "beat@10"]
        wake = _timer_loop(lambda sim, d, fn: sim.wake_in(d, fn))
        assert _periodic_order(wake) == reference

    def test_call_in_loop_reorders_beats(self):
        # The order the test above pins is one ``call_in`` cannot give:
        # at NORMAL priority a beat runs after earlier-scheduled timers.
        call_in = _timer_loop(lambda sim, d, fn: sim.call_in(d, fn))
        assert _periodic_order(call_in) != _periodic_order(_process_loop)

    def test_same_delay_as_a_yield_runs_in_scheduling_order(self, sim):
        log = []

        def proc():
            yield 5.0
            log.append("yield")

        sim.call_at(5.0, log.append, "normal")
        sim.wake_in(5.0, log.append, "beat-before")
        sim.process(proc())
        sim.run(until=1.0)  # the process's yield is scheduled at t=0
        sim.wake_in(4.0, log.append, "beat-after")
        sim.run()
        assert log == ["beat-before", "yield", "beat-after", "normal"]


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        g1, g2 = res.request(), res.request()
        assert g1.triggered and g2.triggered
        g3 = res.request()
        assert not g3.triggered
        assert res.queued == 1

    def test_release_wakes_fifo(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        w1 = res.request()
        w2 = res.request()
        res.release()
        assert w1.triggered and not w2.triggered
        res.release()
        assert w2.triggered

    def test_release_without_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_second_release_of_one_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        res.release()
        with pytest.raises(SimulationError):
            res.release()
        assert res.request().triggered  # capacity intact, not phantom

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_in_use_accounting(self, sim):
        res = Resource(sim, capacity=3)
        assert res.in_use == 0
        res.request()
        assert res.in_use == 1

    def test_serializes_processes(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            grant = res.request()
            yield grant
            log.append((name, "start", sim.now))
            yield hold
            log.append((name, "end", sim.now))
            res.release()

        sim.process(worker("w1", 2.0))
        sim.process(worker("w2", 1.0))
        sim.run()
        assert log == [
            ("w1", "start", 0.0),
            ("w1", "end", 2.0),
            ("w2", "start", 2.0),
            ("w2", "end", 3.0),
        ]


class TestLazyContainers:
    """A resource allocates its queue on first use; a fresh one and one
    whose queue exists but is empty behave the same."""

    @staticmethod
    def _used_resource(sim):
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.release()
        res.release()
        assert res.in_use == 0 and res.queued == 0
        return res

    @staticmethod
    def _resource_trace(res):
        out = [res.queued, res.in_use]
        res.request()
        waiters = [res.request() for _ in range(4)]
        out.append(res.queued)
        order = []
        while True:
            res.release()
            woken = [i for i, w in enumerate(waiters) if w.triggered and i not in order]
            if not woken:
                break
            order += woken
        out += [order, res.queued, res.in_use]
        return out

    def test_resource_same_before_and_after_first_use(self, sim):
        fresh = self._resource_trace(Resource(sim, capacity=1))
        assert fresh == [0, 0, 4, [0, 1, 2, 3], 0, 0]
        assert self._resource_trace(self._used_resource(sim)) == fresh

    def test_fresh_resource_rejects_unknown_grant(self, sim):
        # A release the resource never granted.
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()
        assert res.in_use == 0 and res.queued == 0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def proc(name, delay):
                yield delay
                trace.append((name, sim.now))
                yield delay
                trace.append((name, sim.now))

            sim.process(proc("a", 1.0))
            sim.process(proc("b", 1.0))
            sim.process(proc("c", 0.5))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestAgendaCompaction:
    """Cancel/re-arm churn must not grow the agenda without bound."""

    def test_cancel_rearm_keeps_agenda_bounded(self, sim):
        from repro.simnet.kernel import _COMPACT_MIN_TOMBSTONES

        # A timer armed far in the future, superseded thousands of
        # times before it ever fires — the flow scheduler's wake-up
        # pattern.  Pre-compaction every tombstone stayed in the heap
        # until its (distant) due time, so max_agenda_depth tracked
        # the cancel count instead of the live timer count.
        fired = []
        for i in range(5000):
            ev = sim.call_in(1e6 + i, fired.append, i)
            sim.cancel(ev)
        keep = sim.call_in(1.0, fired.append, "live")
        sim.run()

        assert fired == ["live"]
        assert keep.processed
        assert sim.max_agenda_depth <= 2 * _COMPACT_MIN_TOMBSTONES
        assert sim.agenda_compactions > 0
        assert sim.events_cancelled == 5000

    def test_double_cancel_counts_one_tombstone(self, sim):
        ev = sim.call_in(10.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)  # no-op: must not double-count the tombstone
        assert sim._tombstones == 1
        sim.run()
        assert sim.events_cancelled == 1

    def test_compaction_preserves_fifo_pop_order(self, sim):
        """Unique heap keys mean re-heapifying the survivors cannot
        change pop order — even among same-time entries (FIFO by seq)."""
        order = []
        events = [
            sim.call_at(5.0, order.append, i) for i in range(200)
        ]
        # Cancel every other one; enough tombstones to force a sweep.
        for ev in events[::2]:
            sim.cancel(ev)
        assert sim.agenda_compactions > 0
        sim.run()
        assert order == list(range(1, 200, 2))

    def test_flush_metrics_reports_compactions(self, sim):
        from repro.obs.metrics import MetricsRegistry

        for _ in range(200):
            sim.cancel(sim.call_in(100.0, lambda: None))
        reg = MetricsRegistry()
        sim.flush_metrics(reg)
        assert (
            reg.gauge("kernel.agenda_compactions").value
            == sim.agenda_compactions
            > 0
        )


class TestUnobservedFailureValue:
    def test_exception_value_is_raised(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_non_exception_value_wrapped_in_simulation_error(self, sim):
        # ``fail()`` enforces an exception value, but events built by
        # hand (or mutated by buggy callers) can carry anything; the
        # kernel must not attempt a bare ``raise "oops"``.
        ev = sim.event()
        ev.fail(RuntimeError("placeholder"))
        ev._value = "oops"
        with pytest.raises(SimulationError, match="non-exception value 'oops'"):
            sim.run()


class TestKernelInstrumentation:
    def test_events_processed_counts_steps(self, sim):
        def proc():
            yield 1.0
            yield 1.0

        sim.process(proc())
        sim.run()
        assert sim.events_processed > 0

    def test_agenda_depth_high_water_mark(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        assert sim.max_agenda_depth >= 5

    def test_flush_metrics_publishes_deltas(self, sim):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        sim.timeout(1.0)
        sim.run()
        sim.flush_metrics(reg)
        first = reg.counter("kernel.events_processed").value
        assert first == sim.events_processed > 0
        # Flushing again without new events adds nothing.
        sim.flush_metrics(reg)
        assert reg.counter("kernel.events_processed").value == first
        assert reg.gauge("kernel.sim_time_s").value == sim.now

    def test_flush_without_registry_is_noop(self, sim):
        sim.timeout(1.0)
        sim.run()
        sim.flush_metrics()  # no registry bound: must not raise


def _plan(rng, depth):
    """Random steps for one generator: sleeps of 0-2 s (so many events
    fall due at the same time), child calls, waits on and firings of
    shared events (several waiters make a multi-callback event), timers,
    and, in children, raises."""
    steps = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.35:
            steps.append(("sleep", rng.choice((0, 0, 1, 2))))
        elif roll < 0.55 and depth < 2:
            steps.append(("child", _plan(rng, depth + 1)))
        elif roll < 0.65:
            steps.append(("wait", rng.randrange(3)))
        elif roll < 0.75:
            steps.append(("fire", rng.randrange(3)))
        elif roll < 0.85:
            steps.append(("timer", rng.choice((0, 1)), rng.random() < 0.5))
        elif roll < 0.9 and depth > 0:
            steps.append(("raise",))
        else:
            steps.append(("sleep", 1))
    return steps


def _run_plans(plans, spawn: bool) -> list:
    """The order of every step of ``plans``, children spawned and
    waited on (``spawn``) or run through ``Simulator.call``."""
    sim = Simulator()
    log = []
    shared = [sim.event() for _ in range(3)]

    def body(name, steps):
        for i, step in enumerate(steps):
            log.append((name, i, sim.now))
            kind = step[0]
            if kind == "sleep":
                yield step[1]
            elif kind == "child":
                child = body(f"{name}.{i}", step[1])
                try:
                    if spawn:
                        value = yield sim.process(child)
                    else:
                        value = yield from sim.call(child)
                    log.append((name, i, "returned", value, sim.now))
                except ValueError as exc:
                    log.append((name, i, "caught", str(exc), sim.now))
            elif kind == "wait":
                yield shared[step[1]]
            elif kind == "fire":
                if not shared[step[1]].triggered:
                    shared[step[1]].succeed()
            elif kind == "timer":
                at = step[1]
                schedule = sim.wake_in if step[2] else sim.call_in
                schedule(at, log.append, (name, i, "timer", at))
            else:
                raise ValueError(name)
        return name

    for n, steps in enumerate(plans):
        sim.process(body(f"p{n}", steps))
    sim.run()
    return log, sim.events_processed


class TestCall:
    """``yield from sim.call(child)`` against ``yield sim.process(child)``."""

    def test_same_order_as_a_spawned_child(self):
        for seed in range(300):
            rng = random.Random(seed)
            plans = [_plan(rng, 0) for _ in range(rng.randint(1, 4))]
            spawned, spawned_events = _run_plans(plans, spawn=True)
            called, called_events = _run_plans(plans, spawn=False)
            assert called == spawned, f"seed {seed}"
            assert called_events <= spawned_events, f"seed {seed}"

    @staticmethod
    def _lone_parent_events(spawn: bool) -> int:
        sim = Simulator()

        def child():
            yield 1.0
            return "done"

        def parent():
            if spawn:
                value = yield sim.process(child())
            else:
                value = yield from sim.call(child())
            return value

        assert sim.run(until=sim.process(parent())) == "done"
        return sim.events_processed

    def test_an_uncontended_call_schedules_no_event(self):
        # The child process's start and completion events are gone.
        assert (
            self._lone_parent_events(spawn=False)
            == self._lone_parent_events(spawn=True) - 2
        )

    def test_a_child_due_behind_another_event_waits_for_it(self, sim):
        log = []

        def child():
            log.append(("child", sim.now))
            yield 0

        def parent():
            yield from sim.call(child())
            log.append(("parent", sim.now))

        def other():
            log.append(("other", sim.now))
            yield 0

        sim.process(parent())
        sim.process(other())
        sim.run()
        # As with spawned children: ``other`` starts before the child.
        assert log == [("other", 0.0), ("child", 0.0), ("parent", 0.0)]
