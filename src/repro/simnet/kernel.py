"""Discrete-event simulation kernel.

A small, self-contained process-based DES engine in the style of SimPy,
tuned for the overlay workloads in this library:

* :class:`Simulator` — the event loop: a binary-heap agenda keyed by
  ``(time, priority, sequence)``; the sequence number makes scheduling
  deterministic for equal timestamps.
* :class:`Event` — one-shot occurrence with callbacks; it can *succeed*
  with a value or *fail* with an exception.
* :class:`Process` — a generator-coroutine driven by the simulator.
  Processes ``yield`` delays (numbers), other events, or other
  processes.
* :class:`Timeout`, :class:`AllOf` and :meth:`Simulator.within` — a
  delay, a join, and the timed wait the overlay protocols use ("wait for
  the confirmation or a timeout").
* :class:`Resource` — capacity-limited resource used for CPU slots.
  Messages need no queue: the transport hands every payload to its
  handler on delivery.

The kernel is single-threaded and fully deterministic: runs with the
same seed and the same call order produce identical traces.  The hot
loop avoids per-event allocation beyond the heap entries themselves
(per the HPC guide: make it correct first, keep the inner loop lean).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SchedulingInPastError, SimStopped, SimulationError

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "PENDING",
]

#: Sentinel for an event value that has not been decided yet.
PENDING = object()

#: Default priority for scheduled events; lower runs first at equal time.
NORMAL_PRIORITY = 1
#: Priority used by :class:`Timeout` via ``urgent=True`` scheduling.
URGENT_PRIORITY = 0

#: Placeholder for a :class:`Resource` queue not used yet.  Most
#: resources of a large run stay idle, and an empty deque still holds a
#: full 64-slot block, so the queue is allocated on first use; the
#: empty tuple answers ``len`` and truth meanwhile.
_UNUSED: tuple = ()

#: Agenda compaction: sweep lazily-cancelled entries out of the heap
#: once they are at least this many *and* at least half the agenda.
#: Below the floor the dead entries are cheaper to pop than to sweep.
_COMPACT_MIN_TOMBSTONES = 64


class Event:
    """A one-shot occurrence on the simulator's timeline.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current
    simulation time.  Once processed it is immutable.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_ok", "_scheduled", "_cancelled", "name",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._cancelled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is dropped)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule_event(self, NORMAL_PRIORITY)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` raised at their
        ``yield``.  Failing an event nobody waits on raises when the
        event is processed; an event a :meth:`Simulator.within` wait
        has given up on is still observed, so its failure is dropped.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self, NORMAL_PRIORITY)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:g}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # ``not >=`` rejects NaN too, at the cost of ``<``.
        if not delay >= 0:
            raise SchedulingInPastError(f"{_negative(delay)} timeout delay {delay!r}")
        # One per ``yield <number>``: the Event fields and the agenda
        # push are inlined (same key as ``_schedule_event``).
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        self._cancelled = False
        self.delay = delay = float(delay)
        sim._seq += 1
        agenda = sim._agenda
        heappush(agenda, (sim._now + delay, URGENT_PRIORITY, sim._seq, self))
        if len(agenda) > sim.max_agenda_depth:
            sim.max_agenda_depth = len(agenda)

    def __repr__(self) -> str:
        state = "pending" if self.callbacks is not None else "processed"
        return f"<Timeout({self.delay:g}) {state} at t={self.sim.now:g}>"


#: ``callbacks`` of every pending :class:`_Call` timer: not None, so
#: ``processed`` and :meth:`Simulator.cancel` read the timer as pending,
#: and :meth:`Simulator.step` recognises a timer by identity with it.
#: A timer has no callback list, so it cannot be waited on.
_TIMER = ("timer",)


class _Call(Event):
    """A callback timer made by :meth:`Simulator.call_at` or
    :meth:`Simulator.wake_in`.

    It carries ``fn`` and ``args`` itself, and :meth:`Simulator.step`
    calls ``fn(*args)`` directly.  Both are dropped when the timer
    fires or is cancelled, so a caller that keeps the event (to cancel
    it later) does not keep the arguments alive.  The Event fields a
    timer never changes are class attributes, and ``callbacks`` is the
    shared :data:`_TIMER` mark: nothing can wait on a timer.
    """

    __slots__ = ("fn", "args")

    name = ""
    _ok = True
    _value = None
    _scheduled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.callbacks is not None else "done"
        fn = getattr(self.fn, "__qualname__", self.fn)
        return f"<timer {fn} {state} at t={self.sim.now:g}>"


_new = object.__new__


def _timer(sim: "Simulator", fn: Callable[..., None], args: tuple) -> _Call:
    """A new pending :class:`_Call`.  A plain function, not
    ``_Call.__init__``: calling a class with a Python ``__init__`` costs
    a second interpreter frame per timer."""
    ev = _new(_Call)
    ev.sim = sim
    ev.callbacks = _TIMER
    ev._cancelled = False
    ev.fn = fn
    ev.args = args
    return ev


def _defuse(event: Event) -> None:
    """Observer left on an event that a :meth:`Simulator.within` wait
    gave up on: it drops the outcome, a failure included."""


def _expire(process: "Process", event: Event) -> None:
    """Deadline of :meth:`Simulator.within`: move ``process``'s resume
    from ``event`` to one event due now."""
    callbacks = event.callbacks
    resume = process._resume
    callbacks[callbacks.index(resume)] = _defuse
    relay = Event(process.sim)
    relay.callbacks.append(resume)
    relay.succeed()


def _not_waitable(event: Event) -> SimulationError:
    """The error for waiting on a :class:`_Call` timer."""
    return SimulationError(
        f"cannot wait on timer {event!r}: call_at/call_in/wake_in timers "
        "run a callback and cannot be waited on; use sim.timeout() or "
        "sim.event() instead"
    )


def _negative(value: float) -> str:
    """How an out-of-range time is described in an error: NaN or negative."""
    return "NaN" if value != value else "negative"


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim, name="init")
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule_event(self, URGENT_PRIORITY)


class Process(Event):
    """A generator coroutine driven by the simulator.

    A process is itself an :class:`Event` that triggers when the
    generator returns (value = the generator's return value) or raises
    (the process fails with that exception).

    Inside the generator::

        yield 1.5              # sleep 1.5 simulated seconds
        yield some_event       # wait until the event triggers
        value = yield other    # receive the event's value
        result = yield proc    # wait for a child process
        result = yield from sim.call(child())   # run a child inline
        got = yield from sim.within(event, 5.0)  # wait with a deadline

    Spawn a child process only for concurrency: to wait on it with a
    deadline (:meth:`Simulator.within`) or let it run alongside the
    parent.  A child the parent waits on at once runs inline through
    :meth:`Simulator.call`: same result, same times, same agenda order,
    no process.
    """

    __slots__ = ("_generator",)

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    # -- stepping ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        sim = self.sim
        sim._active_process = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    # The exception is "consumed" by handing it to the
                    # process; it will propagate out of the generator if
                    # unhandled and fail this process instead.
                    target = gen.throw(event._value)
            except StopIteration as stop:
                sim._active_process = None
                self._ok = True
                self._value = stop.value
                sim._schedule_event(self, NORMAL_PRIORITY)
                return
            except BaseException as exc:  # noqa: BLE001 - process failure
                sim._active_process = None
                self._ok = False
                self._value = exc
                sim._schedule_event(self, NORMAL_PRIORITY)
                return

            # Turn the yield target into an event to wait on.
            if isinstance(target, Event):
                if target.sim is not sim:
                    raise SimulationError(
                        "cannot wait on an event from another simulator"
                    )
                event = target
                if event.callbacks is None:
                    # Already happened: loop and feed its value straight in.
                    continue
            elif isinstance(target, (int, float)):
                event = Timeout(sim, float(target))
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported value {target!r}"
                )
            try:
                event.callbacks.append(self._resume)
            except AttributeError:
                # Only a timer's shared ``_TIMER`` mark has no append.
                raise _not_waitable(event) from None
            break
        sim._active_process = None


class AllOf(Event):
    """Triggers once all member events have triggered.

    The value is a dict ``{event: value}`` of the members.  Fails
    immediately if any member fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="AllOf")
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
            if ev.callbacks is _TIMER:
                raise _not_waitable(ev)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            # ``processed`` (not ``triggered``): a timeout is triggered
            # when made, but has not happened until its time comes.
            self.succeed({
                ev: ev._value
                for ev in self.events
                if ev.processed and ev._ok
            })


class Simulator:
    """The discrete-event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield 1.0
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self, metrics: Any = None) -> None:
        self._now = 0.0
        self._agenda: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._stopped = False
        #: Optional metrics registry published to by :meth:`flush_metrics`.
        self.metrics = metrics
        #: Lifetime counters — plain ints so the hot loop never pays for
        #: instrumentation; :meth:`flush_metrics` publishes them.
        self.events_processed = 0
        self.events_cancelled = 0
        self.max_agenda_depth = 0
        self.agenda_compactions = 0
        #: Lazily-cancelled entries still sitting in the agenda; drives
        #: the compaction trigger in :meth:`cancel`.
        self._tombstones = 0
        #: True while ``step`` runs the callbacks of an event that has
        #: more than one (see :meth:`call`).
        self._fanout = False
        self._flushed_events = 0
        self._flushed_cancelled = 0

    # -- clock & introspection ---------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def pending_events(self) -> int:
        """Number of events still on the agenda."""
        return len(self._agenda)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._agenda[0][0] if self._agenda else float("inf")

    # -- event factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def call(self, generator: Generator[Any, Any, Any]):
        """Generator: run ``generator`` inside the calling process.

        ``result = yield from sim.call(child())`` returns or raises what
        ``result = yield sim.process(child())`` would, at the same
        simulated times and in the same agenda order, without building
        a :class:`Process`.  A spawned child starts at an urgent event
        due now and its parent resumes at a normal one; here each of
        those events is scheduled only when something could run before
        it (:meth:`start_gate`, :meth:`_return_gate`), so in the common
        case the child starts and returns with no event at all.  A
        plain ``yield from child()`` skips both events always, so events
        due at the same time can run in another order.
        """
        gate = self.start_gate()
        if gate is not None:
            yield gate
        try:
            result = yield from generator
        except GeneratorExit:
            raise
        except BaseException:
            gate = self._return_gate()
            if gate is not None:
                yield gate
            raise
        gate = self._return_gate()
        if gate is not None:
            yield gate
        return result

    def start_gate(self) -> Optional[Timeout]:
        """The event a child started now waits behind, or None.

        A spawned child would start at an urgent event due now, after
        every urgent event already due now and after the rest of the
        current event's callbacks.  When there are any, this returns a
        zero-delay :class:`Timeout`, which takes that same agenda key;
        otherwise the child can start at once.  (No agenda entry is
        ever due before now, so ``<=`` reads "due now".)
        """
        agenda = self._agenda
        if self._fanout or (
            agenda
            and agenda[0][1] == URGENT_PRIORITY
            and agenda[0][0] <= self._now
        ):
            return Timeout(self, 0.0)
        return None

    def _return_gate(self) -> Optional[Event]:
        """The event a returning child's caller waits behind, or None:
        a spawned child's completion is a normal event due now, after
        every event already due now."""
        agenda = self._agenda
        if self._fanout or (agenda and agenda[0][0] <= self._now):
            return Event(self).succeed()
        return None

    def within(self, event: Event, timeout: float):
        """Generator: wait for ``event`` for at most ``timeout`` seconds.

        ``got = yield from sim.within(event, T)`` returns True if
        ``event`` happened first, or ``event.triggered`` once the
        deadline has passed (so an event triggered at the deadline
        instant still counts).  If ``event`` fails first, its exception
        is raised here.  The caller resumes at the simulated times and in
        the agenda order that racing ``event`` against a ``Timeout(T)``
        in an any-of condition gave, with fewer events:

        * the deadline is a :meth:`wake_in` timer at the key the race's
          ``Timeout`` took, cancelled when the wait ends another way;
        * when ``event`` comes first the caller resumes on it, and waits
          behind :meth:`_return_gate` (at the key of the race's relay
          event) only when another event is due now;
        * when the deadline comes first, the caller's resume moves to
          one event at that relay key, and ``event`` keeps an observer
          that drops its outcome, as the race's condition did.

        A close of the caller cancels the timer.  A :class:`Timeout` is
        triggered when it is made, so it cannot be raced against a
        deadline: passing one raises :class:`SimulationError`, as a
        timer does.
        """
        if not timeout >= 0:
            raise SchedulingInPastError(f"{_negative(timeout)} within timeout {timeout!r}")
        if event.sim is not self:
            raise SimulationError("cannot wait on an event from another simulator")
        if event.callbacks is _TIMER:
            raise _not_waitable(event)
        if type(event) is Timeout:
            raise SimulationError(
                f"cannot race {event!r} against a deadline: a Timeout is "
                "triggered when made; yield it, or wait the shorter delay"
            )
        process = self._active_process
        if process is None:
            raise SimulationError("within() must run inside a process")
        timer = self.wake_in(timeout, _expire, process, event)
        try:
            yield event
        except BaseException as exc:
            if timer.callbacks is None:
                # Closed behind the deadline's relay.
                raise
            self.cancel(timer)
            if exc is not event._value:
                # Closed before ``event`` happened.
                raise
            gate = self._return_gate()
            if gate is not None:
                yield gate
            raise
        if timer.callbacks is None:
            # The deadline came first and resumed the caller.
            return event.triggered
        self.cancel(timer)
        gate = self._return_gate()
        if gate is not None:
            yield gate
        return True

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that triggers when all of ``events`` have."""
        return AllOf(self, events)

    def call_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation ``time``.

        Returns the timer event, which :meth:`cancel` accepts.  ``time``
        must not be earlier than now, nor NaN.
        """
        now = self._now
        if not time >= now:
            raise SchedulingInPastError(
                f"call_at({time!r}) is not at or after now={now!r}"
            )
        ev = _timer(self, fn, args)
        # The key is ``_schedule_event``'s: now plus the delay.
        self._seq += 1
        agenda = self._agenda
        heappush(agenda, (now + (time - now), NORMAL_PRIORITY, self._seq, ev))
        if len(agenda) > self.max_agenda_depth:
            self.max_agenda_depth = len(agenda)
        return ev

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.call_at(self._now + delay, fn, *args)

    def wake_in(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the agenda key of a ``yield delay``.

        A process that yields ``delay`` resumes at ``(now + delay,
        URGENT_PRIORITY, next seq)``; this timer takes that same key,
        where :meth:`call_in` takes ``NORMAL_PRIORITY`` and so runs
        after any same-time event scheduled in between.  A periodic
        loop rewritten as a chain of ``wake_in`` calls (the first at
        delay 0, where the process's start event was) therefore fires
        in the exact order the generator resumed, without a generator
        frame, a :class:`Process` or a :class:`Timeout` per loop.
        Returns the timer event, which :meth:`cancel` accepts.
        """
        # ``not >=`` rejects NaN too, as in ``Timeout``.
        if not delay >= 0:
            raise SchedulingInPastError(f"{_negative(delay)} wake_in delay {delay!r}")
        ev = _timer(self, fn, args)
        self._seq += 1
        agenda = self._agenda
        heappush(agenda, (self._now + float(delay), URGENT_PRIORITY, self._seq, ev))
        if len(agenda) > self.max_agenda_depth:
            self.max_agenda_depth = len(agenda)
        return ev

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled callback event.

        The agenda entry stays in the heap; when its time comes the
        event is discarded without running its callbacks — O(1) cancel
        instead of an O(n) heap removal.  Intended for timers created
        with :meth:`call_at` / :meth:`call_in` (the flow scheduler
        supersedes its wake-up timer this way).  Cancelling an event
        that already ran is a no-op.  Waiting on a cancelled event is
        undefined: it will never fire.  A cancelled :meth:`call_at`
        timer drops its callable and arguments at once.

        Tombstones do not accumulate without bound: once the cancelled
        entries dominate the agenda (see ``_COMPACT_MIN_TOMBSTONES``)
        the heap is compacted in one O(n) sweep, so churn-heavy runs
        that cancel and re-arm timers far into the future keep a
        bounded agenda instead of growing it with every supersede.
        """
        if event.callbacks is None or event._cancelled:
            return
        event._cancelled = True
        if type(event) is _Call:
            event.fn = event.args = None
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and 2 * self._tombstones >= len(self._agenda)
        ):
            self._compact_agenda()

    def _compact_agenda(self) -> None:
        """Drop every cancelled entry from the agenda in one sweep.

        Pop order is unaffected: heap keys ``(time, priority, seq)``
        are unique, so re-heapifying the surviving entries yields the
        exact same processing sequence.
        """
        live = []
        for entry in self._agenda:
            event = entry[3]
            if event._cancelled:
                event.callbacks = None
                self.events_cancelled += 1
            else:
                live.append(entry)
        heapify(live)
        # In place: ``run`` holds an alias of the agenda list.
        self._agenda[:] = live
        self._tombstones = 0
        self.agenda_compactions += 1

    # -- scheduling internals -------------------------------------------------

    def _schedule_event(
        self, event: Event, priority: int, delay: float = 0.0
    ) -> None:
        if not delay >= 0:
            raise SchedulingInPastError(f"{_negative(delay)} delay {delay!r}")
        self._seq += 1
        agenda = self._agenda
        heappush(agenda, (self._now + delay, priority, self._seq, event))
        event._scheduled = True
        if len(agenda) > self.max_agenda_depth:
            self.max_agenda_depth = len(agenda)

    # -- the loop ---------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event on the agenda."""
        try:
            self._now, _prio, _seq, event = heappop(self._agenda)
        except IndexError:
            raise SimulationError("step() on an empty agenda") from None
        if event._cancelled:
            # Lazily-cancelled timer: drop it without running callbacks.
            event.callbacks = None
            self.events_cancelled += 1
            if self._tombstones:
                self._tombstones -= 1
            return
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is _TIMER:
            # A ``call_at``/``wake_in`` timer: drop its callable and
            # arguments, then run it, with no callback frame between.
            fn, args = event.fn, event.args
            event.fn = event.args = None
            fn(*args)
            return
        if len(callbacks) == 1:
            callbacks[0](event)
            return
        if callbacks:
            self._fanout = True
            try:
                for cb in callbacks:
                    cb(event)
            finally:
                self._fanout = False
            return
        if not event._ok:
            # A failed event that nobody observed: surface the error
            # instead of silently dropping it.  The value is usually an
            # exception (``fail()`` enforces that), but events built by
            # hand can carry anything — wrap those instead of letting a
            # bare ``raise None`` surface as a confusing TypeError.
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(
                f"unobserved failed event {event!r} with "
                f"non-exception value {value!r}"
            )

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the agenda drains), a
        number (run until that simulation time, which must not be
        earlier than now, nor NaN), or an :class:`Event` (run until it is
        processed, returning its value).
        """
        self._stopped = False
        until_event: Optional[Event] = None
        until_time = float("inf")
        if isinstance(until, Event):
            until_event = until
        elif until is not None:
            until_time = float(until)
            if not until_time >= self._now:
                raise SchedulingInPastError(
                    f"run(until={until_time!r}) is not at or after now={self._now!r}"
                )

        # Hot loops: ``peek()`` and ``processed`` are inlined, but every
        # event still goes through ``self.step`` (looked up once, so a
        # patched ``Simulator.step`` sees each event).  The alias stays
        # valid because the agenda is only ever mutated in place.
        agenda = self._agenda
        step = self.step
        if until_event is None:
            while agenda and not self._stopped:
                if agenda[0][0] > until_time:
                    self._now = until_time
                    return None
                step()
            # Agenda drained (or stop()) — advance clock for time runs.
            if until is not None and not self._stopped:
                self._now = max(self._now, until_time)
            return None

        while agenda and until_event.callbacks is not None and not self._stopped:
            step()
        if not until_event.triggered:
            if self._stopped:
                raise SimStopped("simulation stopped before event triggered")
            raise SimulationError(
                f"agenda drained before {until_event!r} triggered"
            )
        if not until_event.ok:
            raise until_event._value
        return until_event._value

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._stopped = True

    # -- metrics ----------------------------------------------------------------

    def flush_metrics(self, registry: Any = None) -> None:
        """Publish kernel counters into a metrics registry.

        ``registry`` defaults to the one given at construction; with
        neither (or a disabled registry) this is a no-op.  Counters
        publish deltas since the last flush, so flushing repeatedly —
        e.g. once per experiment repetition into a shared registry —
        never double-counts.
        """
        reg = registry if registry is not None else self.metrics
        if reg is None or not reg.enabled:
            return
        # Cold path: flush runs once per repetition, not per event, and
        # must look instruments up by name because the target registry
        # can differ per call.
        reg.counter("kernel.events_processed").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.events_processed - self._flushed_events
        )
        reg.counter("kernel.events_cancelled").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.events_cancelled - self._flushed_cancelled
        )
        self._flushed_events = self.events_processed
        self._flushed_cancelled = self.events_cancelled
        reg.gauge("kernel.agenda_depth").track_max(self.max_agenda_depth)  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
        reg.gauge("kernel.agenda_compactions").set(self.agenda_compactions)  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
        reg.gauge("kernel.sim_time_s").set(self._now)  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call


class Resource:
    """A capacity-limited resource (counting semaphore).

    ``request()`` returns an event that succeeds when a slot is granted;
    ``release()`` frees a slot.  FIFO granting keeps runs deterministic.
    The waiter queue is allocated on first use (see ``_UNUSED``): most
    hosts never contend for a slot.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self._in_use = 0
        #: FIFO of pending grant events.
        self._waiters: "deque[Event] | tuple" = _UNUSED

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of pending requests."""
        return len(self._waiters)

    @property
    def available(self) -> int:
        """Free slots right now."""
        return self.capacity - self._in_use

    def request(self) -> Event:
        """Return an event that succeeds once a slot is granted."""
        ev = self.sim.event(name="resource-grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            waiters = self._waiters
            if waiters is _UNUSED:
                waiters = self._waiters = deque()
            waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
