"""Structured event tracing with an optional memory bound.

:class:`EventTrace` records :class:`repro.simnet.trace.TraceEvent`
``(kind, time, attrs)`` events for analysis.  It is the tracer every
:class:`~repro.simnet.transport.Network` records into (disabled unless
the caller passes an enabled one); a run picks its retention policy:

* ``policy="all"`` — unbounded append (the default without a capacity).
* ``policy="ring"`` — keep the *last* ``capacity`` events; long runs
  retain the most recent window.
* ``policy="reservoir"`` — uniform sample of ``capacity`` events over
  the whole run (Vitter's algorithm R), seeded so runs stay
  deterministic; retained events are reported in time order.

Export goes through :mod:`repro.obs.export` (JSON/CSV files).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Iterator, List, Optional

from repro.simnet.trace import TraceEvent

__all__ = ["EventTrace"]

_POLICIES = ("all", "ring", "reservoir")


class EventTrace:
    """Append-only event recorder with a bounded retention policy."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        policy: str = "ring",
        seed: int = 0,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if capacity is None:
            policy = "all"
        self.enabled = enabled
        self.capacity = capacity
        self.policy = policy
        #: Events seen (recorded + discarded); ``dropped`` counts the
        #: discarded ones so truncation is never silent.
        self.seen = 0
        self.dropped = 0
        self._seed = seed
        # Only the reservoir samples, so only it pays for seeding an RNG.
        self._rng = random.Random(seed) if policy == "reservoir" else None
        if policy == "ring":
            self._buf: Any = deque(maxlen=capacity)
        else:
            self._buf = []

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, time: float, **attrs: Any) -> None:
        """Record an event (subject to the retention policy)."""
        if not self.enabled:
            return
        self.seen += 1
        ev = TraceEvent(kind=kind, time=time, attrs=attrs)
        if self.policy == "all":
            self._buf.append(ev)
        elif self.policy == "ring":
            if len(self._buf) == self.capacity:
                self.dropped += 1
            self._buf.append(ev)
        else:  # reservoir
            if len(self._buf) < self.capacity:
                self._buf.append(ev)
            else:
                self.dropped += 1
                j = self._rng.randrange(self.seen)
                if j < self.capacity:
                    self._buf[j] = ev

    # -- queries -------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events in time order."""
        if self.policy == "reservoir":
            return sorted(self._buf, key=lambda e: e.time)
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All retained events of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """All retained events satisfying ``predicate``."""
        return [e for e in self.events if predicate(e)]

    def last(self, kind: str) -> Optional[TraceEvent]:
        """Most recent retained event of ``kind`` (or None)."""
        for e in reversed(self.events):
            if e.kind == kind:
                return e
        return None

    def clear(self) -> None:
        """Drop all retained events and reset the sampling state."""
        self._buf.clear()
        self.seen = 0
        self.dropped = 0
        if self._rng is not None:
            self._rng = random.Random(self._seed)
