"""Tests for ChokeManager: peak-rate slots, pinning, parking floor.

The manager runs 3 slots, rotates every 4 proofs and parks below half
the best peak.
"""

from __future__ import annotations

import pytest

from repro.swarm.choke import OPTIMISTIC_EVERY, ChokeManager


class TestMembership:
    def test_admit_within_slots_unchokes(self):
        c = ChokeManager()
        for name in "abcd":
            c.admit(name)
        assert c.unchoked("a") and c.unchoked("b") and c.unchoked("c")
        assert not c.unchoked("d")
        assert c.members() == ("a", "b", "c", "d")

    def test_admit_is_idempotent(self):
        c = ChokeManager()
        c.admit("a")
        c.admit("a")
        assert c.members() == ("a",)

    def test_slot_cap_never_exceeded(self):
        c = ChokeManager()
        for name in "abcdef":
            c.admit(name)
        assert len(c.unchoked_names()) <= 3
        for _ in range(10):
            c.on_proof()
            assert len(c.unchoked_names()) <= 3

    def test_drop_refills_the_slot(self):
        c = ChokeManager()
        for name in "abcd":
            c.admit(name)
        assert c.unchoked("a") and not c.unchoked("d")
        c.drop("a")
        assert c.unchoked("d")
        assert c.members() == ("b", "c", "d")


class TestObservations:
    def test_rate_is_cumulative_peak_is_best_sample(self):
        c = ChokeManager()
        c.admit("a")
        c.record("a", bits=10e6, seconds=1.0)   # 10 Mbps sample
        c.record("a", bits=10e6, seconds=9.0)   # 1.1 Mbps sample
        assert c.rate("a") == pytest.approx(2e6)
        assert c.peak("a") == pytest.approx(10e6)
        assert c.measured("a")

    def test_zero_seconds_ignored(self):
        c = ChokeManager()
        c.admit("a")
        c.record("a", bits=1e6, seconds=0.0)
        assert not c.measured("a")
        assert c.rate("a") == 0.0
        assert c.peak("a") == 0.0


class TestRanking:
    def _measured(self, c, name, mbps):
        c.admit(name)
        c.record(name, bits=mbps * 1e6, seconds=1.0)

    def test_peak_ranked_best_hold_slots(self):
        # Every peak is above the floor (0.5 * 10 Mbps): rank decides.
        c = ChokeManager()
        self._measured(c, "slow", 6.0)
        self._measured(c, "fast", 10.0)
        self._measured(c, "mid", 7.0)
        self._measured(c, "good", 9.0)
        c.on_proof()
        assert set(c.unchoked_names()) == {"fast", "good", "mid"}

    def test_below_floor_source_parked_when_slots_contested(self):
        # floor = 0.5 * best = 5 Mbps; "slow" (2) is deadweight.
        c = ChokeManager()
        self._measured(c, "fast", 10.0)
        self._measured(c, "mid", 8.0)
        self._measured(c, "low", 6.0)
        self._measured(c, "slow", 2.0)
        c.on_proof()
        assert not c.unchoked("slow")

    def test_free_slot_stays_optimistic_for_parked_sources(self):
        # With a slot to spare, one parked source re-measures — a peak
        # ruined by one retransmission must be able to heal.
        c = ChokeManager()
        self._measured(c, "fast", 10.0)
        self._measured(c, "mid", 8.0)
        self._measured(c, "slow", 2.0)
        c.on_proof()
        assert c.unchoked("slow")

    def test_measurement_outranks_mediocre_rank(self):
        # An unmeasured source takes the free slot over a measured
        # below-floor one: rating costs one part and unlocks ranking.
        c = ChokeManager()
        self._measured(c, "fast", 10.0)
        self._measured(c, "good", 9.0)
        self._measured(c, "slow", 1.0)
        c.admit("fresh")
        c.on_proof()
        assert c.unchoked("fast") and c.unchoked("good")
        assert c.unchoked("fresh")
        assert not c.unchoked("slow")

    def test_optimistic_rotation_cycles_unmeasured(self):
        c = ChokeManager()
        names = "abcdef"
        for name in names:
            c.admit(name)
        seen = set()
        for _ in range(len(names) * OPTIMISTIC_EVERY):
            seen.update(c.unchoked_names())
            c.on_proof()
        assert seen == set(names)


class TestPinning:
    def test_pin_requires_admission(self):
        c = ChokeManager()
        with pytest.raises(KeyError):
            c.pin("ghost")

    def test_pinned_origin_survives_being_worst(self):
        c = ChokeManager()
        c.admit("origin")
        c.pin("origin")
        assert c.pinned("origin")
        c.record("origin", bits=1e5, seconds=1.0)  # 0.1 Mbps: terrible
        for name, mbps in (
            ("r1", 10.0), ("r2", 8.0), ("r3", 7.0), ("r4", 6.0)
        ):
            c.admit(name)
            c.record(name, bits=mbps * 1e6, seconds=1.0)
        c.on_proof()
        assert c.unchoked("origin")
        assert len(c.unchoked_names()) == 3

    def test_drop_unpins(self):
        c = ChokeManager()
        c.admit("origin")
        c.pin("origin")
        c.drop("origin")
        assert not c.pinned("origin")
        assert "origin" not in c.members()


class TestForceUnchoke:
    def test_evicts_worst_ranked_nonpinned(self):
        c = ChokeManager()
        for name, mbps in (("fast", 10.0), ("mid", 8.0), ("low", 6.0)):
            c.admit(name)
            c.record(name, bits=mbps * 1e6, seconds=1.0)
        c.admit("parked")
        c.force_unchoke("parked")
        assert c.unchoked("parked") and c.unchoked("fast")
        assert c.unchoked("mid")
        assert not c.unchoked("low")
        assert len(c.unchoked_names()) == 3

    def test_spares_pins_unless_all_pinned(self):
        c = ChokeManager()
        for name in ("o1", "o2", "o3"):
            c.admit(name)
            c.pin(name)
        c.admit("holder")
        # Only slot is pinned: stall-breaking outranks the privilege.
        c.force_unchoke("holder")
        assert c.unchoked("holder")

    def test_noop_for_unknown_or_already_unchoked(self):
        c = ChokeManager()
        c.admit("a")
        c.force_unchoke("a")
        c.force_unchoke("ghost")
        assert c.unchoked_names() == ("a",)
