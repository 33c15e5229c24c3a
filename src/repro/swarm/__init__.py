"""Supervised part delivery over the overlay's part protocol.

One driver serves both directions.  A swarm download (the BitTorrent
generalization of the paper's granularity result) fetches one file's
parts concurrently from several selected sources, with rarest-first
piece ordering, throughput-ranked choke/unchoke slots, endgame
duplicate requests, and straggler re-assignment.  A resumable send
(the recovery layer's checkpoint/resume) pushes a file from one sender
to a selected receiver, replacing a failed receiver with one that gets
only the unproven parts.  Either way the delivery's piece tracker is
its one record of proven parts.

Public surface:

* :class:`~repro.swarm.pieces.PieceTracker` — pure per-download piece
  accounting (availability, rarest-first, endgame).
* :class:`~repro.swarm.choke.ChokeManager` — streaming-slot decisions.
* :class:`~repro.swarm.coordinator.SwarmCoordinator` — the delivery
  driver; :class:`~repro.swarm.coordinator.Leg` and
  :class:`~repro.swarm.coordinator.SwarmOutcome` are its input and
  result records.
"""

from repro.swarm.choke import ChokeManager
from repro.swarm.coordinator import (
    Leg,
    PieceRequest,
    SwarmCoordinator,
    SwarmOutcome,
)
from repro.swarm.pieces import PieceTracker

__all__ = [
    "ChokeManager",
    "Leg",
    "PieceRequest",
    "SwarmCoordinator",
    "SwarmOutcome",
    "PieceTracker",
]
