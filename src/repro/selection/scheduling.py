"""Scheduling-based (economic) selection model — paper §2.1.

"The idea is to find/provision as many as possible available *idle*
peers to which the new incoming jobs can be allocated. …  Crucial to
this model is the *ready time* of peers in order to plan in advance the
allocation of jobs to P2P nodes.  The estimated time is computed by the
broker peers based on historical data kept for the peergroup.  In case
several peers are available candidates for executing the task, some
additional data and criteria such as CPU speed are used."

Concretely:

1. Provision the **idle** candidates (no live queue content, no
   planned commitment) first; busy ones rank after every idle one.
2. Within each group, score by estimated **completion time** (ready
   time + service estimate from
   :class:`~repro.selection.readytime.ReadyTimeEstimator`).
3. Among near-ties (within :data:`TIEBREAK_TOLERANCE` relative
   completion time of the group's best) prefer the higher **CPU
   speed**.
4. Optionally **reserve** the winner's ready time on its record so
   subsequent allocations see the commitment (the "plan in advance"
   part).
"""

from __future__ import annotations

from typing import List, Optional

from repro.selection.base import (
    PeerSelector,
    RankedCandidate,
    SelectionContext,
)
from repro.selection.readytime import ReadyTimeEstimator

__all__ = ["SchedulingBasedSelector"]

#: Completion times within this fraction of the best count as a tie,
#: which the higher CPU speed breaks.
TIEBREAK_TOLERANCE = 0.05


class SchedulingBasedSelector(PeerSelector):
    """The economic scheduling model."""

    name = "economic"

    def __init__(
        self,
        estimator: Optional[ReadyTimeEstimator] = None,
        reserve: bool = True,
    ) -> None:
        self._estimator = estimator
        self.reserve = reserve

    def _get_estimator(self, context: SelectionContext) -> ReadyTimeEstimator:
        if self._estimator is not None:
            return self._estimator
        return ReadyTimeEstimator(context.broker)

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        """Idle candidates first, then busy ones, each group best-first."""
        candidates = list(context.require_candidates())
        estimator = self._get_estimator(context)
        idle, busy = [], []
        for rec in candidates:
            (idle if estimator.is_idle(rec, context.now) else busy).append(rec)
        return self._by_completion(idle, estimator, context) + self._by_completion(
            busy, estimator, context
        )

    @staticmethod
    def _by_completion(
        group, estimator: ReadyTimeEstimator, context: SelectionContext
    ) -> List[RankedCandidate]:
        if not group:
            return []
        estimates = [
            (estimator.estimate(rec, context.workload, context.now), rec)
            for rec in group
        ]
        best_completion = min(e.completion_at for e, _ in estimates)
        span = max(best_completion - context.now, 1e-9)

        def sort_key(pair):
            est, rec = pair
            rel = (est.completion_at - context.now) / span
            # Bucket near-ties together, then break by CPU speed
            # (descending), then by name for determinism.
            bucket = 0 if rel <= 1.0 + TIEBREAK_TOLERANCE else rel
            return (bucket, -rec.adv.cpu_speed, rec.adv.name)

        estimates.sort(key=sort_key)
        return [
            RankedCandidate(score=est.completion_at - context.now, record=rec)
            for est, rec in estimates
        ]

    def select(self, context: SelectionContext):
        record = super().select(context)
        if self.reserve:
            # On the record itself: under a federation it is the
            # owning shard's entry, which ``context.broker`` may lack.
            estimator = self._get_estimator(context)
            est = estimator.estimate(record, context.workload, context.now)
            record.reserve(est.completion_at)
        return record
