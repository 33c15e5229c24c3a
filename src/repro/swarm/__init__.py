"""Multi-source (swarming) downloads over the overlay's part protocol.

The BitTorrent generalization of the paper's granularity result
(ROADMAP open item #2): one file's parts are fetched concurrently from
several selected peers, with rarest-first piece ordering, throughput-
ranked choke/unchoke slots, endgame duplicate requests, and
ledger-proven straggler re-assignment.

Public surface:

* :class:`~repro.swarm.pieces.PieceTracker` — pure per-download piece
  accounting (availability, rarest-first, endgame).
* :class:`~repro.swarm.choke.ChokeManager` — streaming-slot decisions.
* :class:`~repro.swarm.coordinator.SwarmCoordinator` — the download
  driver; :class:`~repro.swarm.coordinator.SwarmSource` and
  :class:`~repro.swarm.coordinator.SwarmOutcome` are its input and
  result records.
"""

from repro.swarm.choke import ChokeManager
from repro.swarm.coordinator import (
    PieceRequest,
    SwarmCoordinator,
    SwarmOutcome,
    SwarmSource,
)
from repro.swarm.pieces import PieceTracker

__all__ = [
    "ChokeManager",
    "PieceRequest",
    "SwarmCoordinator",
    "SwarmOutcome",
    "SwarmSource",
    "PieceTracker",
]
