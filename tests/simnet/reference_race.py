"""The timed-wait race that ``Simulator.within`` replaced.

Before ``within``, a timed wait was ``yield sim.any_of([event,
sim.timeout(T)])`` followed by a read of ``event.triggered``.  The
kernel's any-of condition is gone; this module keeps it, as the
reference that differential tests run against ``within``.
"""

from __future__ import annotations

from repro.simnet.kernel import Event, Simulator


class RaceAnyOf(Event):
    """The removed any-of condition: triggers when its first member
    does, failing if that member failed; later members are ignored."""

    __slots__ = ("events",)

    def __init__(self, sim: Simulator, events) -> None:
        super().__init__(sim, name="AnyOf")
        self.events = tuple(events)
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok:
            self.succeed(
                {ev: ev._value for ev in self.events if ev.processed and ev._ok}
            )
        else:
            self.fail(event._value)


def race(sim: Simulator, event: Event, timeout: float):
    """Generator: the reference timed wait, with ``within``'s result."""
    yield RaceAnyOf(sim, [event, sim.timeout(timeout)])
    return event.triggered


def use_race(monkeypatch) -> None:
    """Make every ``sim.within`` in the library run the race instead."""
    monkeypatch.setattr(Simulator, "within", race)
