"""Tests for degraded-mode (staleness-aware) selection."""

from __future__ import annotations

import pytest

from repro.errors import TransferAborted
from repro.experiments.scenario import ExperimentConfig, Session
from repro.recovery import (
    RecoveryConfig,
    StalenessAwareEvaluator,
    StalenessAwareScheduler,
)
from repro.selection.base import SelectionContext, Workload

BUDGET_S = RecoveryConfig().staleness_budget_s


@pytest.fixture(scope="module")
def warmed_session():
    """A traced session with observed history: one warmup transfer per
    SC."""
    session = Session(
        ExperimentConfig(
            seed=41, repetitions=1, recovery=RecoveryConfig(), trace=True
        )
    )

    def scenario(s):
        for label in s.sc_labels():
            try:
                yield s.sim.process(
                    s.broker.transfers.send_file(
                        s.client(label).advertisement(), f"w-{label}", 2e6
                    )
                )
            except TransferAborted:
                pass
        yield 30.0
        return None

    session.run(scenario)
    return session


def _context(session, candidates, now):
    return SelectionContext(
        broker=session.broker,
        now=now,
        workload=Workload(transfer_bits=8e6, n_parts=2),
        candidates=candidates,
    )


class TestEvaluator:
    def test_fresh_inputs_keep_all_criteria(self, warmed_session):
        s = warmed_session
        selector = StalenessAwareEvaluator("same_priority", budget_s=BUDGET_S)
        candidates = s.broker.candidates(kind="simpleclient")
        ranked = selector.rank(_context(s, candidates, s.sim.now))
        assert selector.last_dropped == ()
        assert len(ranked) == len(candidates)

    def test_stale_criteria_dropped_and_renormalized(self, warmed_session):
        s = warmed_session
        selector = StalenessAwareEvaluator("same_priority", budget_s=BUDGET_S)
        candidates = s.broker.candidates(kind="simpleclient")
        far = s.sim.now + 10 * BUDGET_S
        saved = [(rec, rec.interaction) for rec in candidates]
        # Cut the interaction-backed shortcut so every criterion is
        # judged by its freshness clock, then refresh exactly one key.
        for rec in candidates:
            rec.interaction = None
        candidates[0].freshness.note_many(("pending_transfers",), far - 1.0)
        try:
            ranked = selector.rank(_context(s, candidates, far))
        finally:
            for rec, inter in saved:
                rec.interaction = inter
        assert "pending_transfers" not in selector.last_dropped
        assert len(selector.last_dropped) > 0
        assert len(ranked) == len(candidates)
        # The working weights are restored after the call.
        assert selector.weights == selector._base_weights

    def test_all_stale_keeps_full_weight_set(self, warmed_session):
        s = warmed_session
        selector = StalenessAwareEvaluator("same_priority", budget_s=BUDGET_S)
        candidates = s.broker.candidates(kind="simpleclient")
        # Far beyond any freshness note earlier tests may have left on
        # these shared records (the clock is monotone).
        far = s.sim.now + 1000 * BUDGET_S
        saved = [(rec, rec.interaction) for rec in candidates]
        for rec in candidates:
            rec.interaction = None
        try:
            ranked = selector.rank(_context(s, candidates, far))
        finally:
            for rec, inter in saved:
                rec.interaction = inter
        # Uniformly old data still orders peers: nothing is dropped.
        assert selector.last_dropped == ()
        assert len(ranked) == len(candidates)


class TestScheduler:
    def test_fresh_history_trusted(self, warmed_session):
        s = warmed_session
        selector = StalenessAwareScheduler(reserve=False, budget_s=BUDGET_S)
        candidates = s.broker.candidates(kind="simpleclient")
        selector.rank(_context(s, candidates, s.sim.now))
        assert selector.last_distrusted == ()

    def test_stale_history_distrusted_and_restored(self, warmed_session):
        s = warmed_session
        selector = StalenessAwareScheduler(reserve=False, budget_s=BUDGET_S)
        candidates = s.broker.candidates(kind="simpleclient")
        target = candidates[0]
        original_perf = target.perf
        far = s.sim.now + 10 * BUDGET_S
        # Everyone else stays fresh; only the target's history ages.
        for rec in candidates[1:]:
            rec.perf.last_observed_at = far - 1.0
        ranked = selector.rank(_context(s, candidates, far))
        assert selector.last_distrusted == (target.adv.name,)
        # The stale history was swapped out only for the ranking.
        assert target.perf is original_perf
        assert len(ranked) == len(candidates)
        event = s.tracer.last("selection-degraded")
        assert event.time == far
        assert event.attrs.get("model") == "economic+degraded"
        assert event.attrs.get("distrusted") == target.adv.name
