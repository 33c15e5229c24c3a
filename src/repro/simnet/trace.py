"""The structured trace event record.

A trace is a sequence of ``(kind, time, attrs)`` events; the recorder
that retains them is :class:`repro.obs.trace.EventTrace`, which reuses
this record type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    kind: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)
