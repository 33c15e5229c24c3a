"""Property-based tests (hypothesis) for selection invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import make_selector, probe
from repro.selection.base import SelectionContext, Workload
from repro.selection.criteria import (
    WEIGHT_PROFILES,
    criterion_utility,
    evaluate_snapshot,
    normalize_weights,
)

shares = st.floats(min_value=0.0, max_value=1.0)
queue_lens = st.floats(min_value=0.0, max_value=100.0)


class TestCriteriaMonotonicity:
    @given(shares, shares)
    @settings(max_examples=80, deadline=None)
    def test_success_share_monotone(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        u_lo = criterion_utility(
            "messages_ok_total", {"pct_messages_ok_total": lo}
        )
        u_hi = criterion_utility(
            "messages_ok_total", {"pct_messages_ok_total": hi}
        )
        assert u_lo <= u_hi

    @given(queue_lens, queue_lens)
    @settings(max_examples=80, deadline=None)
    def test_queue_length_antitone(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        u_lo = criterion_utility("inbox_now", {"inbox_len_now": lo})
        u_hi = criterion_utility("inbox_now", {"inbox_len_now": hi})
        assert u_lo >= u_hi

    @given(shares, shares)
    @settings(max_examples=80, deadline=None)
    def test_cancellation_share_antitone(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        u_lo = criterion_utility(
            "transfers_cancelled_total", {"pct_transfers_cancelled_total": lo}
        )
        u_hi = criterion_utility(
            "transfers_cancelled_total", {"pct_transfers_cancelled_total": hi}
        )
        assert u_lo >= u_hi


class TestEvaluatorDominance:
    @given(
        st.fixed_dictionaries(
            {
                "pct_messages_ok_total": shares,
                "pct_files_sent_total": shares,
                "inbox_len_now": queue_lens,
            }
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_dominated_snapshot_never_scores_higher(self, snap):
        """Degrading any criterion input cannot raise the utility."""
        weights = normalize_weights(WEIGHT_PROFILES["same_priority"])
        base = evaluate_snapshot(snap, weights)
        worse = dict(snap)
        worse["pct_messages_ok_total"] = snap["pct_messages_ok_total"] * 0.5
        worse["inbox_len_now"] = snap["inbox_len_now"] + 5.0
        assert evaluate_snapshot(worse, weights) <= base + 1e-12

    @given(st.dictionaries(
        st.sampled_from(sorted(WEIGHT_PROFILES["same_priority"])),
        st.floats(min_value=0.0, max_value=10.0),
        min_size=1,
    ))
    @settings(max_examples=60, deadline=None)
    def test_normalized_weights_sum_to_one(self, raw):
        if all(v == 0.0 for v in raw.values()):
            return  # rejected elsewhere
        weights = normalize_weights(raw)
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert all(v > 0 for v in weights.values())


MODELS = ("blind", "economic", "same_priority", "quick_peer")


@pytest.fixture(scope="module")
def warmed_session():
    """A connected session whose broker has probed every peer once, so
    the quick-peer user has experience with each of them."""
    session = Session(ExperimentConfig())

    def warmup(s):
        for label in s.sc_labels():
            adv = s.client(label).advertisement()
            yield from probe(s.broker, adv, f"warm-{label}", 8e6, 1, 600.0)

    session.run(warmup)
    return session


class TestRankIsAPermutation:
    """``PeerSelector.rank`` returns every candidate exactly once,
    whichever peers are busy, for every model the studies build."""

    @given(
        model=st.sampled_from(MODELS),
        busy_s=st.lists(
            st.sampled_from([0.0, 0.0, 5.0, 60.0, 600.0]), min_size=8, max_size=8
        ),
        keep=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_is_a_permutation(self, warmed_session, model, busy_s, keep):
        session = warmed_session
        now = session.sim.now
        records = session.candidates()
        candidates = [r for r, k in zip(records, keep) if k] or records
        saved = [(r, r.busy_until) for r in records]
        try:
            for rec, offset in zip(records, busy_s):
                rec.busy_until = now + offset
            ranked = make_selector(model, session, "permutation").rank(
                SelectionContext(
                    broker=session.broker,
                    now=now,
                    workload=Workload(transfer_bits=8e6),
                    candidates=candidates,
                )
            )
        finally:
            for rec, busy_until in saved:
                rec.busy_until = busy_until
        assert sorted(r.record.adv.name for r in ranked) == sorted(
            r.adv.name for r in candidates
        )
