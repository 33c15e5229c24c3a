"""Tests for loss models — including the loss-amplification math that
drives the paper's Figure 5."""

from __future__ import annotations

import pytest

from repro.simnet.loss import NoLoss, PerUnitLoss
from repro.simnet.rng import RandomStreams
from repro.units import mbit


@pytest.fixture
def rng():
    return RandomStreams(seed=13).get("loss-tests")


class TestNoLoss:
    def test_never_loses(self):
        m = NoLoss()
        assert not m.unit_lost(mbit(1000), 0.0)


class TestPerUnitLoss:
    def test_success_probability_formula(self, rng):
        m = PerUnitLoss(0.02, rng)
        assert m.success_probability(mbit(1)) == pytest.approx(0.98)
        assert m.success_probability(mbit(100)) == pytest.approx(0.98**100)

    def test_amplification_monotone_in_size(self, rng):
        """Bigger units are strictly more likely to be lost — the
        mechanism behind 'sending the whole file is not worth it'."""
        m = PerUnitLoss(0.02, rng)
        probs = [m.success_probability(mbit(s)) for s in (6.25, 25, 50, 100)]
        assert probs == sorted(probs, reverse=True)

    def test_expected_transmissions_exponential(self, rng):
        m = PerUnitLoss(0.02, rng)
        small = m.expected_transmissions(mbit(6.25))
        whole = m.expected_transmissions(mbit(100))
        assert whole / small > 5.0

    def test_total_expected_bits_favor_parts(self, rng):
        """16 parts cost fewer expected transmitted bits than 1 whole."""
        m = PerUnitLoss(0.02, rng)
        whole = mbit(100) * m.expected_transmissions(mbit(100))
        parts = 16 * mbit(6.25) * m.expected_transmissions(mbit(6.25))
        assert parts < whole

    def test_zero_loss_never_drops(self, rng):
        m = PerUnitLoss(0.0, rng)
        assert not any(m.unit_lost(mbit(100), 0.0) for _ in range(100))

    def test_empirical_rate_matches(self, rng):
        m = PerUnitLoss(0.05, rng)
        p = m.success_probability(mbit(10))
        hits = sum(not m.unit_lost(mbit(10), 0.0) for _ in range(4000))
        assert hits / 4000 == pytest.approx(p, abs=0.03)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PerUnitLoss(-0.1, rng)
        with pytest.raises(ValueError):
            PerUnitLoss(1.0, rng)
