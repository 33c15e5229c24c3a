"""Tests for the data-evaluator criteria catalog."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CriteriaError
from repro.selection.criteria import (
    CRITERIA,
    CRITERION_INPUTS,
    WEIGHT_PROFILES,
    criterion_utility,
    evaluate_snapshot,
    normalize_weights,
)


class TestCatalogCompleteness:
    def test_paper_criteria_present(self):
        """Every §2.2 criterion family must exist."""
        expected = {
            # global (message) criteria
            "messages_ok_session",
            "messages_ok_total",
            "messages_ok_last_k",
            "outbox_now",
            "outbox_avg",
            "inbox_now",
            "inbox_avg",
            # task-execution criteria
            "tasks_ok_session",
            "tasks_ok_total",
            "tasks_accepted_session",
            "tasks_accepted_total",
            # file criteria
            "files_sent_session",
            "files_sent_total",
            "transfers_cancelled_session",
            "transfers_cancelled_total",
            "pending_transfers",
        }
        assert expected == set(CRITERIA)

    def test_profiles_reference_known_criteria(self):
        for profile in WEIGHT_PROFILES.values():
            assert set(profile) <= set(CRITERIA)

    def test_same_priority_covers_everything(self):
        assert set(WEIGHT_PROFILES["same_priority"]) == set(CRITERIA)

    def test_every_criterion_declares_its_inputs(self):
        # Degraded-mode selection judges staleness per declared input.
        assert set(CRITERION_INPUTS) == set(CRITERIA)
        assert all(CRITERION_INPUTS.values())


class TestUtilities:
    def test_share_passthrough(self):
        snap = {"pct_messages_ok_session": 0.8}
        assert criterion_utility("messages_ok_session", snap) == 0.8

    def test_queue_inverted(self):
        assert criterion_utility("outbox_now", {"outbox_len_now": 0}) == 1.0
        assert criterion_utility("outbox_now", {"outbox_len_now": 3}) == pytest.approx(0.25)

    def test_cancellation_complemented(self):
        snap = {"pct_transfers_cancelled_total": 0.25}
        assert criterion_utility("transfers_cancelled_total", snap) == pytest.approx(0.75)

    def test_missing_keys_optimistic(self):
        assert criterion_utility("messages_ok_total", {}) == 1.0
        assert criterion_utility("pending_transfers", {}) == 1.0

    def test_unknown_criterion_raises(self):
        with pytest.raises(CriteriaError):
            criterion_utility("sprockets", {})

    def test_clamped_to_unit_interval(self):
        assert criterion_utility("messages_ok_total", {"pct_messages_ok_total": 1.7}) == 1.0
        assert criterion_utility("messages_ok_total", {"pct_messages_ok_total": -0.3}) == 0.0


class TestWeights:
    def test_normalize_sums_to_one(self):
        w = normalize_weights({"messages_ok_total": 2.0, "inbox_now": 2.0})
        assert sum(w.values()) == pytest.approx(1.0)
        assert w["messages_ok_total"] == pytest.approx(0.5)

    def test_zero_weights_dropped(self):
        w = normalize_weights({"messages_ok_total": 1.0, "inbox_now": 0.0})
        assert "inbox_now" not in w

    def test_empty_rejected(self):
        with pytest.raises(CriteriaError):
            normalize_weights({})

    def test_all_zero_rejected(self):
        with pytest.raises(CriteriaError):
            normalize_weights({"messages_ok_total": 0.0})

    def test_negative_rejected(self):
        with pytest.raises(CriteriaError):
            normalize_weights({"messages_ok_total": -1.0})

    def test_unknown_name_rejected(self):
        with pytest.raises(CriteriaError):
            normalize_weights({"sprockets": 1.0})


class TestEvaluate:
    def test_perfect_snapshot_scores_one(self):
        weights = normalize_weights(WEIGHT_PROFILES["same_priority"])
        assert evaluate_snapshot({}, weights) == pytest.approx(1.0)

    def test_degraded_snapshot_scores_lower(self):
        weights = normalize_weights(WEIGHT_PROFILES["same_priority"])
        degraded = {"pct_messages_ok_total": 0.0, "outbox_len_now": 10.0}
        assert evaluate_snapshot(degraded, weights) < 1.0

    def test_weighting_matters(self):
        snap = {"pct_tasks_ok_total": 0.0}
        task_w = normalize_weights(WEIGHT_PROFILES["task_oriented"])
        msg_w = normalize_weights(WEIGHT_PROFILES["message_oriented"])
        assert evaluate_snapshot(snap, task_w) < evaluate_snapshot(snap, msg_w)


class TestCriteriaProperties:
    snapshot_strategy = st.fixed_dictionaries(
        {},
        optional={
            "pct_messages_ok_session": st.floats(0, 1),
            "pct_messages_ok_total": st.floats(0, 1),
            "outbox_len_now": st.floats(0, 100),
            "inbox_len_avg": st.floats(0, 100),
            "pct_transfers_cancelled_total": st.floats(0, 1),
            "pending_transfers": st.floats(0, 50),
        },
    )

    @given(snapshot_strategy)
    @settings(max_examples=100, deadline=None)
    def test_utilities_bounded(self, snap):
        for name in CRITERIA:
            u = criterion_utility(name, snap)
            assert 0.0 <= u <= 1.0

    @given(snapshot_strategy)
    @settings(max_examples=100, deadline=None)
    def test_weighted_sum_bounded(self, snap):
        weights = normalize_weights(WEIGHT_PROFILES["same_priority"])
        assert 0.0 <= evaluate_snapshot(snap, weights) <= 1.0
