"""Blind (no-information) baselines.

The paper's first experiment uses peers "in a blind way, [where] no
peer selection is done".  :class:`RoundRobinSelector` makes that
baseline available to the same harness.
"""

from __future__ import annotations

from typing import List

from repro.selection.base import (
    PeerSelector,
    RankedCandidate,
    SelectionContext,
)

__all__ = ["RoundRobinSelector"]


class RoundRobinSelector(PeerSelector):
    """Cycle through the candidates in stable (name) order."""

    name = "blind-round-robin"

    def __init__(self) -> None:
        self._next = 0

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        candidates = sorted(
            context.require_candidates(), key=lambda r: r.adv.name
        )
        n = len(candidates)
        start = self._next % n
        self._next += 1
        rotated = candidates[start:] + candidates[:start]
        return [
            RankedCandidate(score=float(i), record=rec)
            for i, rec in enumerate(rotated)
        ]

