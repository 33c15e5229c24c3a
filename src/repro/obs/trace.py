"""Structured event tracing with an optional memory bound.

:class:`EventTrace` records :class:`repro.simnet.trace.TraceEvent`
``(kind, time, attrs)`` events for analysis.  It is the tracer every
:class:`~repro.simnet.transport.Network` records into (disabled unless
the caller passes an enabled one).  Without a ``capacity`` it keeps
every event; with one it is a ring buffer that keeps the *last*
``capacity`` events, so a long run retains its most recent window.

Export goes through :mod:`repro.obs.export` (JSON/CSV files).
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional

from repro.obs.trace_schema import TRACE_SCHEMA
from repro.simnet.trace import TraceEvent

__all__ = ["EventTrace"]


class EventTrace:
    """Append-only event recorder, optionally bounded to a ring."""

    def __init__(
        self, enabled: bool = True, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        #: Events seen (recorded + discarded).
        self.seen = 0
        self._buf: deque = deque(maxlen=capacity)

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, time: float, **attrs: Any) -> None:
        """Record an event (the oldest falls out of a full ring).

        ``kind`` must be declared in :mod:`repro.obs.trace_schema` and
        ``attrs`` must carry its required fields, else ValueError.  A
        disabled trace checks nothing.
        """
        if not self.enabled:
            return
        spec = TRACE_SCHEMA.get(kind)
        if spec is None:
            import difflib

            close = difflib.get_close_matches(kind, TRACE_SCHEMA, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"trace event {kind!r} is not declared in "
                f"repro.obs.trace_schema{hint}"
            )
        missing = [f for f in spec.required if f not in attrs]
        if missing:
            raise ValueError(
                f"trace event {kind!r} is missing required field(s) {missing}"
            )
        self.seen += 1
        self._buf.append(TraceEvent(kind=kind, time=time, attrs=attrs))

    # -- queries -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events discarded by the ring, so truncation is never silent."""
        return self.seen - len(self._buf)

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events in time order."""
        return list(self._buf)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All retained events of one kind, in time order."""
        return [e for e in self._buf if e.kind == kind]

    def last(self, kind: str) -> Optional[TraceEvent]:
        """Most recent retained event of ``kind`` (or None)."""
        for e in reversed(self._buf):
            if e.kind == kind:
                return e
        return None
