"""Tests for the user's-preference selector."""

from __future__ import annotations

import pytest

from repro.errors import SelectionError
from repro.overlay.ids import IdFactory
from repro.overlay.statistics import PerformanceHistory
from repro.selection.base import SelectionContext, Workload
from repro.selection.preference import PreferenceTable, UserPreferenceSelector

ids = IdFactory()


def history_with_latencies(pairs):
    h = PerformanceHistory()
    for t, lat in pairs:
        h.record_petition_latency(t, lat)
    return h


def history_with_rates(pairs):
    h = PerformanceHistory()
    for t, bps in pairs:
        h.record_transfer(t, bits=bps, seconds=1.0)
    return h


class TestQuickPeerTable:
    def test_ranks_by_mean_latency_in_window(self):
        a, b = ids.peer_id("a"), ids.peer_id("b")
        observed = {
            a: history_with_latencies([(1.0, 0.5), (2.0, 0.7)]),
            b: history_with_latencies([(1.0, 0.1)]),
        }
        table = PreferenceTable.quick_peer(observed, 0.0, 10.0)
        assert table.score(b) < table.score(a)

    def test_window_excludes_outside_observations(self):
        a = ids.peer_id("a")
        observed = {a: history_with_latencies([(1.0, 0.5), (100.0, 9.0)])}
        table = PreferenceTable.quick_peer(observed, 0.0, 10.0)
        assert table.score(a) == pytest.approx(0.5)

    def test_unknown_peer_scores_inf(self):
        table = PreferenceTable.quick_peer({}, 0.0, 1.0)
        assert table.score(ids.peer_id("ghost")) == float("inf")


class TestFastTransferTable:
    def test_ranks_by_mean_rate(self):
        a, b = ids.peer_id("a2"), ids.peer_id("b2")
        observed = {
            a: history_with_rates([(1.0, 100.0)]),
            b: history_with_rates([(1.0, 900.0)]),
        }
        table = PreferenceTable.fast_transfer(observed, 0.0, 10.0)
        assert table.score(b) < table.score(a)

    def test_window_excludes_outside_observations(self):
        a = ids.peer_id("a5")
        observed = {a: history_with_rates([(5.0, 100.0), (20.0, 900.0)])}
        assert PreferenceTable.fast_transfer(observed, 0.0, 10.0).score(a) == -100.0
        table = PreferenceTable.fast_transfer(observed, 6.0, 10.0)
        assert table.score(a) == float("inf")


class TestRecentTransferTable:
    def test_last_observation_wins(self):
        a, b = ids.peer_id("a3"), ids.peer_id("b3")
        observed = {
            # a was historically great but recently slow.
            a: history_with_rates([(1.0, 1000.0), (5.0, 10.0)]),
            b: history_with_rates([(1.0, 500.0)]),
        }
        table = PreferenceTable.recent_transfer(observed)
        assert table.score(b) < table.score(a)

    def test_no_observations_no_score(self):
        a = ids.peer_id("a4")
        table = PreferenceTable.recent_transfer({a: PerformanceHistory()})
        assert table.score(a) == float("inf")


class TestUserPreferenceSelector:
    def test_picks_preferred_candidate(self, star):
        sim, broker, clients = star
        ranking = {clients["slow"].peer_id: 0.0, clients["fast"].peer_id: 1.0}
        sel = UserPreferenceSelector(PreferenceTable(scores=ranking))
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(),
            candidates=broker.candidates(),
        )
        # The user prefers 'slow' — current state is ignored by design.
        assert sel.select(ctx).adv.name == "slow"

    def test_no_experience_raises(self, star):
        sim, broker, clients = star
        sel = UserPreferenceSelector(PreferenceTable())
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(),
            candidates=broker.candidates(),
        )
        with pytest.raises(SelectionError):
            sel.select(ctx)

    def test_partial_experience_prefers_known(self, star):
        sim, broker, clients = star
        table = PreferenceTable(scores={clients["medium"].peer_id: 0.0})
        sel = UserPreferenceSelector(table)
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(),
            candidates=broker.candidates(),
        )
        assert sel.select(ctx).adv.name == "medium"

    def test_mode_in_name(self):
        sel = UserPreferenceSelector(PreferenceTable())
        assert "quick_peer" in sel.name
