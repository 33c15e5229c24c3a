"""The declared trace-event schema: every event the system emits.

Trace analyses (the resilience matrix's censored-vs-aborted
accounting, swarm piece-flow debugging, fault timelines) join events
across modules by name and field.  This table declares that contract:
one ``TraceEventSpec`` per event kind, with the fields every emit
site must carry.  An enabled :class:`repro.obs.trace.EventTrace`
enforces it in ``record``: an undeclared event or a missing required
field raises ``ValueError``.  ``tests/obs/test_declarations.py`` fails
on an entry no ``src/repro`` module uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["TraceEventSpec", "TRACE_EVENTS", "TRACE_SCHEMA", "trace_event_names"]


@dataclass(frozen=True)
class TraceEventSpec:
    """One declared trace-event kind."""

    name: str
    #: Fields every emit site must pass as keyword attrs.
    required: Tuple[str, ...]
    #: Owning subsystem.
    owner: str
    description: str


TRACE_EVENTS: Tuple[TraceEventSpec, ...] = (
    # -- fault injection -----------------------------------------------------
    TraceEventSpec("fault-apply", ("fault", "target"), "faults", "fault episode applied to a target"),
    TraceEventSpec("fault-revert", ("fault", "target"), "faults", "fault episode reverted"),
    TraceEventSpec("fault-truncated", ("fault", "target"), "faults", "episode cut short by end of run"),
    # -- gossip federation ---------------------------------------------------
    TraceEventSpec("gossip-dead", ("member", "by"), "gossip", "suspicion expired: member declared dead"),
    TraceEventSpec("gossip-suspect", ("member", "by"), "gossip", "member placed under SWIM suspicion"),
    TraceEventSpec("shard-handoff", ("shard", "to", "version"), "gossip", "shard adopted by a surviving broker"),
    # -- message transport ---------------------------------------------------
    TraceEventSpec("msg-drop-down", ("dst",), "simnet", "message dropped: destination down"),
    TraceEventSpec("msg-recv", ("src", "dst", "payload_kind", "latency"), "simnet", "message delivered"),
    TraceEventSpec("msg-send", ("src", "dst", "payload_kind", "lost"), "simnet", "message handed to the wire"),
    TraceEventSpec("transfer-done", ("src", "dst", "size_bits", "attempts", "duration"), "simnet", "bulk transfer completed"),
    TraceEventSpec("transfer-retry", ("src", "dst", "size_bits", "attempt"), "simnet", "bulk transfer attempt retried"),
    # -- recovery stack ------------------------------------------------------
    TraceEventSpec("broker-failover", ("leader", "latency_s"), "recovery", "standby promoted to leader"),
    TraceEventSpec("selection-degraded", ("model",), "recovery", "selection served from a stale snapshot"),
    # -- supervised delivery (swarm downloads, resumable sends) --------------
    TraceEventSpec("petition-queued", ("peer", "filename"), "swarm", "leg waits for the fixed end's host"),
    TraceEventSpec("swarm-cancel", ("filename", "piece", "source"), "swarm", "endgame duplicate cancelled"),
    TraceEventSpec("swarm-done", ("filename", "ok", "duplicates", "reassignments"), "swarm", "supervised delivery finished"),
    TraceEventSpec("swarm-open", ("filename", "fixed", "parts", "k"), "swarm", "supervised delivery opened"),
    TraceEventSpec("swarm-piece", ("filename", "piece", "source", "duplicate"), "swarm", "piece proven in the delivery's tracker (first confirm only)"),
    TraceEventSpec("swarm-reassign", ("filename", "source", "error", "dropped"), "swarm", "failed leg replaced"),
)

#: name -> spec, the lookup table runtime checks use.
TRACE_SCHEMA: Dict[str, TraceEventSpec] = {spec.name: spec for spec in TRACE_EVENTS}


def trace_event_names() -> frozenset:
    """The declared trace-event namespace."""
    return frozenset(TRACE_SCHEMA)
