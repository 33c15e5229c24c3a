"""Hybrid selection model (extension beyond the paper).

The paper concludes that "appropriate selection model should be used
according to the type and characteristics of the application" — an
invitation to combine them.  :class:`HybridSelector` composes the two
informed models' complementary strengths:

1. **Screen** with the data evaluator: drop candidates whose weighted
   §2.2 utility falls more than ``screen_margin`` below the best
   (peers with bad message/transfer records are out, whatever their
   speed).
2. **Rank** the survivors with the economic scheduler: ready time +
   first-party service estimates pick the fastest *reliable* peer.

This fixes each parent's blind spot: the evaluator cannot see speed
among clean peers; the economic model will happily use an unreliable
peer whose goodput history happens to look good.  The
``hybrid_vs_parents`` ablation benchmark quantifies the effect.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Union

from repro.selection.base import (
    PeerSelector,
    RankedCandidate,
    SelectionContext,
)
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.scheduling import SchedulingBasedSelector

__all__ = ["HybridSelector"]


class HybridSelector(PeerSelector):
    """Evaluator-screened economic selection."""

    name = "hybrid"

    def __init__(
        self,
        weights: Union[str, Mapping[str, float]] = "transfer_oriented",
        screen_margin: float = 0.05,
        economic: Optional[SchedulingBasedSelector] = None,
    ) -> None:
        if not 0 <= screen_margin <= 1:
            raise ValueError("screen_margin must be in [0, 1]")
        self.screener = DataEvaluatorSelector(weights)
        self.screen_margin = screen_margin
        self.economic = economic if economic is not None else SchedulingBasedSelector()
        self.name = f"hybrid[{self.screener.profile_name}]"

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        candidates = list(context.require_candidates())
        utilities = {
            rec.peer_id: self.screener.utility(
                rec.selection_snapshot(context.now)
            )
            for rec in candidates
        }
        best = max(utilities.values())
        screened = [
            rec
            for rec in candidates
            if utilities[rec.peer_id] >= best - self.screen_margin
        ]
        # Never screen down to nothing: fall back to the full set.
        pool = screened if screened else candidates
        sub_context = SelectionContext(
            broker=context.broker,
            now=context.now,
            workload=context.workload,
            candidates=pool,
        )
        ranked = self.economic.rank(sub_context)
        # Screened-out candidates still appear, after the survivors.
        tail = [
            RankedCandidate(score=float("inf"), record=rec)
            for rec in sorted(
                (r for r in candidates if r not in pool),
                key=lambda r: (-utilities[r.peer_id], r.adv.name),
            )
        ]
        return ranked + tail

    def select(self, context: SelectionContext):
        record = super().select(context)
        if self.economic.reserve:
            # Mirror the economic model's reservation semantics.
            from repro.selection.readytime import ReadyTimeEstimator

            estimator = ReadyTimeEstimator(context.broker)
            est = estimator.estimate(record, context.workload, context.now)
            record.reserve(est.completion_at)
        return record
