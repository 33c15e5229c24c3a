"""User's preference selection model — paper §2.3.

"The peer is selected by the user according to his preferences and
experience in using the peer nodes of the P2P network. …  This model
has a very low computational cost.  Its main drawback is that it does
not take into account the current state of the selected peer nor the
current state of the network."

We model the human as a :class:`PreferenceTable` distilled from an
*experience window*: the latencies/transfer rates the user observed in
past interactions.  *Quick-peer* mode (evaluated in Figure 6) ranks by
remembered responsiveness.  The table is frozen at build time — by
design it ignores everything that happened after the window, which is
precisely the staleness drawback the ablation benchmarks quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Dict, List, Mapping, TYPE_CHECKING

from repro.errors import SelectionError
from repro.overlay.ids import PeerId
from repro.selection.base import (
    PeerSelector,
    RankedCandidate,
    SelectionContext,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.statistics import PerformanceHistory

__all__ = ["PreferenceTable", "UserPreferenceSelector"]


@dataclass(frozen=True)
class PreferenceTable:
    """The user's frozen ranking: peer id -> preference score
    (lower = more preferred, like a rank)."""

    scores: Mapping[PeerId, float] = field(default_factory=dict)
    #: Score assigned to peers the user has no experience with.
    unknown_score: float = float("inf")

    def score(self, peer_id: PeerId) -> float:
        """Preference score for a peer (unknown_score if never seen)."""
        return self.scores.get(peer_id, self.unknown_score)

    @classmethod
    def quick_peer(
        cls,
        observed: Mapping[PeerId, "PerformanceHistory"],
        window_start: float,
        window_end: float,
    ) -> "PreferenceTable":
        """Build the *quick peer* table: rank by remembered petition
        latency inside the experience window (lower = quicker)."""
        scores: Dict[PeerId, float] = {}
        for peer_id, hist in observed.items():
            lat = hist.latencies_in_window(window_start, window_end)
            if lat:
                scores[peer_id] = fmean(lat)
        return cls(scores=scores)

    @classmethod
    def fast_transfer(
        cls,
        observed: Mapping[PeerId, "PerformanceHistory"],
        window_start: float,
        window_end: float,
    ) -> "PreferenceTable":
        """Rank by remembered transfer goodput (higher = preferred)."""
        scores: Dict[PeerId, float] = {}
        for peer_id, hist in observed.items():
            rates = [v for (t, v) in hist.transfer_obs
                     if window_start <= t <= window_end]
            if rates:
                # Negate so that lower score = faster remembered rate.
                scores[peer_id] = -fmean(rates)
        return cls(scores=scores)

    @classmethod
    def recent_transfer(
        cls, observed: Mapping[PeerId, "PerformanceHistory"]
    ) -> "PreferenceTable":
        """Rank by the *most recent* remembered transfer rate.

        Humans weight recency: the user prefers the peer that was
        fastest the last time they used it.  This variant is what lets
        the quick-peer user abandon a peer after experiencing one slow
        part — the paper's Figure 6 convergence at fine granularity.
        """
        scores: Dict[PeerId, float] = {}
        for peer_id, hist in observed.items():
            if hist.transfer_obs:
                _, last_rate = hist.transfer_obs[-1]
                scores[peer_id] = -last_rate
        return cls(scores=scores)


class UserPreferenceSelector(PeerSelector):
    """Selection by the user's frozen preference table."""

    #: Quick-peer mode is the only one the paper evaluates (Figure 6);
    #: the table's constructor decides what "quick" remembers.
    name = "user-preference[quick_peer]"

    def __init__(self, table: PreferenceTable) -> None:
        self.table = table

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        candidates = context.require_candidates()
        scored = [
            RankedCandidate(score=self.table.score(rec.peer_id), record=rec)
            for rec in candidates
        ]
        if all(rc.score == float("inf") for rc in scored):
            raise SelectionError(
                f"{self.name}: user has no experience with any candidate"
            )
        scored.sort(key=lambda rc: (rc.score, rc.record.adv.name))
        return scored
