"""``Simulator.within`` against the any-of race it replaced.

``got = yield from sim.within(event, T)`` must resume its caller at the
simulated times, with the values and in the global agenda order that
``yield any_of([event, sim.timeout(T)])`` followed by
``event.triggered`` gave.  The kernel no longer has an any-of condition;
:mod:`tests.simnet.reference_race` keeps the old one as the reference,
and twin simulators run the same random program once with each.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.simnet.kernel import Event, Simulator

from tests.simnet.reference_race import race


def within(sim: Simulator, event: Event, timeout: float):
    """The timed wait under test, called as :func:`race` is."""
    return (yield from sim.within(event, timeout))


#: Whole-second times, so replies, deadlines, timers and sleeps collide.
grid = st.integers(min_value=0, max_value=4)
priority = st.sampled_from(["normal", "urgent"])
outcome = st.sampled_from(["ok", "fail"])

#: A reply: never, or after a delay at a priority, succeeding or failing.
reply = st.one_of(st.none(), st.tuples(grid, priority, outcome))

step = st.one_of(
    st.tuples(st.just("sleep"), grid),
    # Wait on a reply of its own, with a deadline.
    st.tuples(st.just("wait"), reply, grid),
    # Wait on a shared event, with a deadline.
    st.tuples(st.just("wait-shared"), st.integers(0, 2), grid),
    # Wait on a shared event with no deadline (a second observer).
    st.tuples(st.just("yield-shared"), st.integers(0, 2)),
)

program = st.fixed_dictionaries({
    "shared": st.lists(st.tuples(grid, priority, outcome), min_size=3, max_size=3),
    "procs": st.lists(st.lists(step, min_size=1, max_size=4), min_size=1, max_size=4),
    "ticks": st.lists(st.tuples(grid, priority), max_size=6),
    "closes": st.lists(st.tuples(grid, st.integers(0, 3)), max_size=2),
})


def _run(prog, wait):
    """Run ``prog`` with ``wait`` as its timed wait; return the action
    log and the number of events processed."""
    sim = Simulator()
    log = []
    waiting = {}      # process index -> event it waits on now
    abandoned = set()  # events whose wait was closed
    closed = set()
    procs = []

    def at(delay, prio, fn, *args):
        (sim.call_in if prio == "normal" else sim.wake_in)(delay, fn, *args)

    def resolve(ev, tag, how):
        # An event whose wait was closed only succeeds: the race let
        # the failure of such an event escape the run when it came
        # before the deadline, ``within`` whenever it comes.
        if ev.triggered:
            return
        log.append((sim.now, "resolve", tag, how))
        if how == "ok" or ev in abandoned:
            ev.succeed(tag)
        else:
            ev.fail(RuntimeError(tag))

    shared = []
    for k, (t, prio, how) in enumerate(prog["shared"]):
        ev = sim.event()
        shared.append(ev)
        at(t, prio, resolve, ev, f"s{k}", how)

    def body(i, steps):
        for j, (kind, *args) in enumerate(steps):
            try:
                if kind == "sleep":
                    yield args[0]
                    log.append((sim.now, i, j, "slept"))
                    continue
                if kind == "yield-shared":
                    value = yield shared[args[0]]
                    log.append((sim.now, i, j, "yielded", value))
                    continue
                if kind == "wait":
                    ev = sim.event()
                    if args[0] is not None:
                        delay, prio, how = args[0]
                        at(delay, prio, resolve, ev, f"r{i}.{j}", how)
                    timeout = args[1]
                else:
                    ev = shared[args[0]]
                    timeout = args[1]
                waiting[i] = ev
                got = yield from wait(sim, ev, timeout)
                value = ev._value if got and ev._ok else None
                log.append((sim.now, i, j, "got", got, value))
            except GeneratorExit:
                log.append((sim.now, i, j, "closed"))
                raise
            except RuntimeError as exc:
                log.append((sim.now, i, j, "failed", str(exc)))
            finally:
                waiting.pop(i, None)
        log.append((sim.now, i, "done"))

    def tick(n):
        log.append((sim.now, "tick", n))

    def failing(i):
        # For the same reason, nothing gives up on a failure on its way.
        ev = waiting.get(i)
        return ev is not None and ev.triggered and not ev._ok

    def close(i):
        i %= len(procs)
        if i in waiting and i not in closed and not failing(i):
            closed.add(i)
            abandoned.add(waiting[i])
            procs[i]._generator.close()

    for i, steps in enumerate(prog["procs"]):
        procs.append(sim.process(body(i, steps)))
    for n, (t, prio) in enumerate(prog["ticks"]):
        at(t, prio, tick, n)
    for t, i in prog["closes"]:
        sim.call_in(t, close, i)
    try:
        sim.run()
    except RuntimeError as exc:
        # A shared event that failed with nobody waiting escapes.
        log.append((sim.now, "escaped", str(exc)))
    # A copy: collecting the unfinished processes closes them later.
    return list(log), sim.events_processed


class TestWithinMatchesTheRace:
    @given(program)
    @settings(max_examples=400, deadline=None)
    def test_same_times_values_and_order(self, prog):
        expected, race_events = _run(prog, race)
        got, within_events = _run(prog, within)
        assert got == expected
        assert within_events <= race_events

    def test_a_reply_at_the_deadline_instant_counts(self):
        # The reply's timer is due before the deadline timer at the same
        # time, so the reply is triggered but not processed when the
        # deadline falls: both waits return True.
        for wait in (race, within):
            sim = Simulator()
            ev = sim.event()

            def proc():
                sim.wake_in(2.0, ev.succeed, "late")
                got = yield from wait(sim, ev, 2.0)
                return (sim.now, got)

            assert sim.run(until=sim.process(proc())) == (2.0, True)

    def test_a_reply_resumes_with_one_event_and_cancels_the_timer(self):
        counts = {}
        for wait in (race, within):
            sim = Simulator()
            ev = sim.event()

            def proc():
                sim.call_in(1.0, ev.succeed, "v")
                return (yield from wait(sim, ev, 5.0))

            assert sim.run(until=sim.process(proc())) is True
            sim.run()
            counts[wait] = (sim.events_processed, sim.events_cancelled)
        # The race also ran its relay and its dead timeout.
        assert counts[race] == (counts[within][0] + 2, 0)
        assert counts[within][1] == 1

    def test_closing_the_waiter_cancels_the_timer(self):
        sim = Simulator()
        ev = sim.event()
        proc = sim.process(within(sim, ev, 5.0))
        sim.run(until=1.0)
        proc._generator.close()
        sim.run()
        assert sim.now == 5.0  # the cancelled timer's entry still pops
        assert sim.events_cancelled == 1


def _timed_races(tree: ast.AST):
    """Calls ``any_of([...])`` whose list holds a ``timeout(...)`` call."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "any_of"
            and any(
                isinstance(inner, ast.Call)
                and getattr(inner.func, "attr", None) == "timeout"
                for arg in node.args
                for inner in ast.walk(arg)
            )
        ):
            yield node


def test_no_timed_race_is_left_in_src():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in _timed_races(ast.parse(path.read_text()))
    ]
    assert found == [], f"timed any_of races (use sim.within): {found}"
    # The detector itself sees the old idiom.
    old = "def f(sim, w):\n    yield sim.any_of([w, sim.timeout(1.0)])\n"
    assert len(list(_timed_races(ast.parse(old)))) == 1
