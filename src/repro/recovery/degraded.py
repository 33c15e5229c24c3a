"""Degraded-mode peer selection under stale inputs.

Fault windows starve the broker of fresh statistics: keepalives stop,
stat reports queue, and the histories that drive selection age out.
Instead of ranking on fiction, the two selection models that rank on
observed statistics each declare an explicit **fallback** that engages
when their inputs exceed a staleness budget (``budget_s``, which
callers take from
:attr:`~repro.recovery.config.RecoveryConfig.staleness_budget_s`):

* :class:`StalenessAwareEvaluator` — the cost model drops criteria
  whose snapshot inputs are stale for *every* candidate and
  renormalizes the remaining weights (all-stale keeps the full set:
  uniformly old data still orders peers);
* :class:`StalenessAwareScheduler` — the economic model prices
  candidates with stale performance histories at their planned
  (advertised) rates rather than trusting outdated observations.

Every degraded decision increments the ``selection.degraded`` counter
and emits a ``selection-degraded`` trace event, so experiment
artifacts can attribute quality shifts to fallback engagement.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.overlay.statistics import PerformanceHistory
from repro.selection.base import RankedCandidate, SelectionContext
from repro.selection.criteria import CRITERION_INPUTS, normalize_weights
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.scheduling import SchedulingBasedSelector

__all__ = [
    "StalenessAwareEvaluator",
    "StalenessAwareScheduler",
]


class _DegradedMixin:
    """Shared metric/trace plumbing for the staleness-aware models."""

    def _init_degraded(self, budget_s: float) -> None:
        if budget_s <= 0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.budget_s = budget_s
        self._m_degraded = None

    def _note_degraded(self, context: SelectionContext, **attrs) -> None:
        broker = context.broker
        if self._m_degraded is None:
            self._m_degraded = broker.metrics.counter("selection.degraded")  # simlint: disable=SIM006 -- bound lazily exactly once: the registry lives on the broker, unknown at selector construction
        self._m_degraded.inc()
        broker.network.tracer.record(
            "selection-degraded", context.now, model=self.name, **attrs
        )


class StalenessAwareEvaluator(_DegradedMixin, DataEvaluatorSelector):
    """Cost model that drops all-stale criteria and renormalizes."""

    def __init__(self, *args, budget_s: float, **kwargs):
        super().__init__(*args, **kwargs)
        self._init_degraded(budget_s)
        self._base_weights = dict(self.weights)
        #: Criteria dropped by the most recent :meth:`rank` call.
        self.last_dropped: Tuple[str, ...] = ()
        self.name = f"{self.name}+degraded"

    def _fresh_criteria(self, context: SelectionContext) -> List[str]:
        now = context.now
        candidates = context.candidates
        fresh = []
        for criterion in self._base_weights:
            if any(
                rec.input_age(key, now) <= self.budget_s
                for rec in candidates
                for key in CRITERION_INPUTS[criterion]
            ):
                fresh.append(criterion)
        return fresh

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        context.require_candidates()
        fresh = self._fresh_criteria(context)
        dropped = tuple(
            sorted(c for c in self._base_weights if c not in fresh)
        )
        if not fresh:
            # Everything is equally stale: old data still orders peers
            # better than no data, so keep the full weight set.
            dropped = ()
        self.last_dropped = dropped
        if not dropped:
            self.weights = dict(self._base_weights)
            return super().rank(context)
        self._note_degraded(
            context, dropped=",".join(dropped), kept=len(fresh)
        )
        self.weights = normalize_weights(
            {c: self._base_weights[c] for c in fresh}
        )
        try:
            return super().rank(context)
        finally:
            self.weights = dict(self._base_weights)


class StalenessAwareScheduler(_DegradedMixin, SchedulingBasedSelector):
    """Economic model that distrusts stale performance histories.

    Candidates whose broker-side :class:`PerformanceHistory` has gone
    stale are temporarily priced with an *empty* history, which makes
    the :class:`~repro.selection.readytime.ReadyTimeEstimator` fall
    back to the node's planned (advertised) rates — the same posture
    the broker takes toward peers it has never measured.
    """

    def __init__(self, *args, budget_s: float, **kwargs):
        super().__init__(*args, **kwargs)
        self._init_degraded(budget_s)
        #: Peer names whose history the most recent rank distrusted.
        self.last_distrusted: Tuple[str, ...] = ()
        self.name = "economic+degraded"

    def rank(self, context: SelectionContext) -> List[RankedCandidate]:
        now = context.now
        stale = [
            rec
            for rec in context.require_candidates()
            if rec.perf.last_observed_at is not None
            and rec.perf.age(now) > self.budget_s
        ]
        self.last_distrusted = tuple(
            sorted(rec.adv.name for rec in stale)
        )
        if not stale:
            return super().rank(context)
        self._note_degraded(
            context, distrusted=",".join(self.last_distrusted)
        )
        saved = [(rec, rec.perf) for rec in stale]
        # rank() runs synchronously (no yields), so a swap-and-restore
        # cannot be observed by any concurrent process.
        for rec in stale:
            rec.perf = PerformanceHistory()
        try:
            return super().rank(context)
        finally:
            for rec, perf in saved:
                rec.perf = perf
