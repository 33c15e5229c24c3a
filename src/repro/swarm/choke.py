"""Choke/unchoke slot management for swarm sources.

BitTorrent-style reciprocity, adapted to the push protocol: the swarm
holds a set of admitted sources but only :data:`UNCHOKE_SLOTS` of them
may stream concurrently.  Ranking is the *peak* observed per-part
throughput: a whole-unit retransmission halves one sample and a
share-limited part understates capability, but neither ever inflates
it, so the best part a source has streamed is its robust capability
estimate.
Unmeasured sources take any free slots — every source streams at
least once so its rate is known — and when more unmeasured sources
exist than slots, an optimistic rotation picks which of them go
first.

A measured source whose peak rate falls below :data:`DROP_BELOW`
times the best source's peak is *parked*: it keeps its membership but
not a slot, even when slots sit empty.  The access-link scheduler divides
the destination downlink equally per concurrent flow without
redistributing unused shares, so a source that cannot fill its share
reduces aggregate throughput; streaming fewer-but-faster flows is
strictly better.  One free slot stays optimistic: the rotation cycles
it through the parked set so a source parked off an unlucky sample
(one retransmission is enough to halve a rate) re-measures and
rehabilitates, while a genuinely slow source re-parks at its next
piece boundary.  Decisions apply at piece boundaries — the
coordinator re-checks membership before every part, never
mid-stream.

Deterministic by construction: members live in an insertion-ordered
dict, ranking ties break on the source name, and the optimistic
rotation is a counter, not a random draw.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["ChokeManager", "UNCHOKE_SLOTS"]

#: Sources allowed to stream a part concurrently.  A swarm may hold
#: more sources than this, but only this many hold a streaming slot at
#: once.  Deliberately below the usual source count: the access-link
#: scheduler gives every concurrent flow an equal downlink share with
#: no redistribution, so streaming the origin plus the best-measured
#: replicas beats spreading the downlink across mediocre ones.
UNCHOKE_SLOTS = 3
#: Choke reevaluations between optimistic-unchoke rotations.
OPTIMISTIC_EVERY = 4
#: Park a measured source whose peak rate falls below this fraction
#: of the best source's peak.
DROP_BELOW = 0.5


class ChokeManager:
    """Throughput-ranked streaming slots over admitted sources."""

    def __init__(self) -> None:
        #: admission-ordered members (dict-as-set).
        self._members: Dict[str, None] = {}
        self._unchoked: Dict[str, None] = {}
        self._pinned: Dict[str, None] = {}
        self._peak: Dict[str, float] = {}
        self._proofs = 0
        self._rotation = 0

    # -- membership ----------------------------------------------------------

    def admit(self, name: str) -> None:
        """Add a source; it starts unchoked only while slots are free
        (later admissions wait for a rotation or a drop)."""
        if name in self._members:
            return
        self._members[name] = None
        if len(self._unchoked) < UNCHOKE_SLOTS:
            self._unchoked[name] = None

    def pin(self, name: str) -> None:
        """Mark an admitted source as the origin: it always holds a
        slot and is never parked or evicted (dropping it unpins)."""
        if name not in self._members:
            raise KeyError(f"cannot pin unadmitted source {name!r}")
        self._pinned[name] = None
        self._reevaluate()

    def drop(self, name: str) -> None:
        """Remove a failed/finished source and refill its slot."""
        self._members.pop(name, None)
        self._unchoked.pop(name, None)
        self._pinned.pop(name, None)
        self._reevaluate()

    # -- observations --------------------------------------------------------

    def record(self, name: str, bits: float, seconds: float) -> None:
        """Account one confirmed part against ``name``'s throughput."""
        if seconds <= 0:
            return
        self._peak[name] = max(self._peak.get(name, 0.0), bits / seconds)

    def peak(self, name: str) -> float:
        """Best single-part throughput (0 until measured) — the
        ranking statistic (robust to retransmission-halved samples)."""
        return self._peak.get(name, 0.0)

    # -- decisions -----------------------------------------------------------

    def unchoked(self, name: str) -> bool:
        """May ``name`` start streaming a part right now?"""
        return name in self._unchoked

    def unchoked_names(self) -> Tuple[str, ...]:
        """The current unchoked set (never larger than
        :data:`UNCHOKE_SLOTS`)."""
        return tuple(self._unchoked)

    def on_proof(self) -> None:
        """Reevaluate after a confirmed part; every
        :data:`OPTIMISTIC_EVERY` proofs the optimistic slot rotates."""
        self._proofs += 1
        if self._proofs % OPTIMISTIC_EVERY == 0:
            self._rotation += 1
        self._reevaluate()

    def measured(self, name: str) -> bool:
        """Has ``name`` streamed at least one accounted part?"""
        return name in self._peak

    def _reevaluate(self) -> None:
        members = tuple(self._members)
        if not members:
            self._unchoked = {}
            return
        # Pinned (origin) sources hold slots unconditionally.
        keep = [n for n in members if n in self._pinned][:UNCHOKE_SLOTS]
        free = UNCHOKE_SLOTS - len(keep)
        rest = [n for n in members if n not in self._pinned]
        # Measurement outranks rank: an unrated source costs one part
        # to rate and unlocks the ranking; a measured-but-mediocre
        # holder must not starve it of that one part.  The rotation
        # picks who goes first when they outnumber the free slots.
        unmeasured = sorted(n for n in rest if not self.measured(n))
        if free > 0 and unmeasured:
            start = self._rotation % len(unmeasured)
            take = min(free, len(unmeasured))
            keep += [
                unmeasured[(start + i) % len(unmeasured)]
                for i in range(take)
            ]
            free -= take
        ranked = sorted(
            (n for n in rest if self.measured(n)),
            key=lambda n: (-self.peak(n), n),
        )
        # Remaining slots go to measured sources above the deadweight
        # floor, best first (a below-floor flow shrinks the shares of
        # everyone else at the shared destination link).
        best = max((self.peak(n) for n in members if self.measured(n)),
                   default=0.0)
        floor = DROP_BELOW * best
        if free > 0:
            eligible = [n for n in ranked if self.peak(n) >= floor]
            keep += eligible[:free]
            free -= min(free, len(eligible))
        if free > 0:
            # The optimistic slot: one parked source re-measures so a
            # capability estimate ruined by retransmission luck heals.
            taken = dict.fromkeys(keep)
            parked = [n for n in ranked if n not in taken]
            if parked:
                keep.append(parked[self._rotation % len(parked)])
        self._unchoked = dict.fromkeys(keep)
