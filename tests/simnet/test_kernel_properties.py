"""Property-based tests (hypothesis) for the DES kernel."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import (
    NORMAL_PRIORITY,
    URGENT_PRIORITY,
    Resource,
    Simulator,
)

delays = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)

#: Short delays, quarter-second steps half the time so that same-time
#: ties between timers, timeouts and triggered events are common.
short = st.one_of(
    st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)

#: One step of the conductor process in ``TestMixedAgenda``.
agenda_ops = st.one_of(
    st.tuples(st.sampled_from(["call_at", "call_in", "wake_in", "sleep"]), short),
    st.tuples(st.just("proc"), st.lists(short, max_size=4)),
    st.tuples(st.just("succeed"), st.none()),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
)


class TestTimeOrdering:
    @given(st.lists(delays, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_callbacks_fire_in_nondecreasing_time(self, ds):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.call_at(d, lambda t=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @given(st.lists(delays, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_clock_ends_at_max_delay(self, ds):
        sim = Simulator()
        for d in ds:
            sim.timeout(d)
        sim.run()
        assert sim.now == max(ds)

    @given(st.lists(delays, min_size=1, max_size=20), delays)
    @settings(max_examples=60, deadline=None)
    def test_run_until_never_overshoots(self, ds, horizon):
        sim = Simulator()
        for d in ds:
            sim.timeout(d)
        sim.run(until=horizon)
        assert sim.now <= max(horizon, 0.0) + 1e-9


class TestProcessProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_sequential_delays_sum(self, ds):
        sim = Simulator()

        def proc():
            for d in ds:
                yield d
            return sim.now

        p = sim.process(proc())
        assert abs(sim.run(until=p) - sum(ds)) < 1e-6 * max(1.0, sum(ds))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=2, max_size=10)
    )
    @settings(max_examples=50, deadline=None)
    def test_parallel_processes_end_at_max(self, ds):
        sim = Simulator()

        def proc(d):
            yield d

        for d in ds:
            sim.process(proc(d))
        sim.run()
        assert sim.now == max(ds)


class TestResourceProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, capacity, holds):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        concurrency = []

        def worker(hold):
            yield res.request()
            concurrency.append(res.in_use)
            yield hold
            res.release()

        for h in holds:
            sim.process(worker(h))
        sim.run()
        assert max(concurrency) <= capacity
        assert len(concurrency) == len(holds)  # everyone eventually ran

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_all_slots_freed_at_end(self, capacity, n_workers):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)

        def worker():
            yield res.request()
            yield 1.0
            res.release()

        for _ in range(n_workers):
            sim.process(worker())
        sim.run()
        assert res.in_use == 0
        assert res.queued == 0


class TestMixedAgenda:
    """Timers, ``yield delay`` processes and triggered events share one
    agenda: everything fires in ascending order of the key its API
    promises when it is scheduled, cancelled timers never fire, and the
    kernel's counters agree with what ran."""

    @given(
        st.lists(agenda_ops, min_size=1, max_size=40),
        st.sampled_from(["drain", "until-event", "until-time"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fires_in_key_order(self, ops, mode):
        sim = Simulator()
        keys = {}       # label -> (time, priority, seq) promised when scheduled
        fired = []      # (label, sim.now) in firing order
        timers = []     # (label, timer) in scheduling order
        cancelled = []  # labels of timers cancelled while pending
        procs = 1       # the conductor

        def promise(label, delay, priority):
            # Every entry point keys at now plus the delay, with the
            # next sequence number.
            keys[label] = (sim.now + delay, priority, sim._seq + 1)

        def fire(label):
            fired.append((label, sim.now))

        def sleep(label, d):
            promise(label, d, URGENT_PRIORITY)
            yield d
            fire(label)

        def worker(label, ds):
            for i, d in enumerate(ds):
                yield from sleep((label, i), d)

        def conductor():
            nonlocal procs
            for label, (kind, arg) in enumerate(ops):
                if kind == "call_at":
                    at = sim.now + arg
                    promise(label, at - sim.now, NORMAL_PRIORITY)
                    timers.append((label, sim.call_at(at, fire, label)))
                elif kind == "call_in":
                    promise(label, arg, NORMAL_PRIORITY)
                    timers.append((label, sim.call_in(arg, fire, label)))
                elif kind == "wake_in":
                    promise(label, arg, URGENT_PRIORITY)
                    timers.append((label, sim.wake_in(arg, fire, label)))
                elif kind == "sleep":
                    yield from sleep(label, arg)
                elif kind == "proc":
                    sim.process(worker(label, arg))
                    procs += 1
                elif kind == "succeed":
                    event = sim.event()
                    event.callbacks.append(lambda _e, label=label: fire(label))
                    promise(label, 0.0, NORMAL_PRIORITY)
                    event.succeed()
                elif timers:
                    target, timer = timers[arg % len(timers)]
                    if not timer.processed and target not in cancelled:
                        cancelled.append(target)
                    sim.cancel(timer)

        proc = sim.process(conductor())
        if mode == "until-event":
            sim.run(until=proc)
        elif mode == "until-time":
            sim.run(until=1.0)
        sim.run()

        order = [keys[label] for label, _ in fired]
        assert order == sorted(order)
        assert len(set(order)) == len(order)
        assert all(keys[label][0] == now for label, now in fired)
        assert sorted(map(str, (label for label, _ in fired))) == sorted(
            str(label) for label in keys if label not in cancelled
        )
        # Each process adds its start and its end event to what fired.
        assert sim.events_processed == len(fired) + 2 * procs
        assert sim.events_cancelled == len(cancelled)
        assert sim.pending_events == 0
