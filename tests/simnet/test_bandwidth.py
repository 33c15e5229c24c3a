"""Tests for bandwidth models."""

from __future__ import annotations

import pytest

from repro.simnet.bandwidth import ContendedBandwidth
from repro.simnet.rng import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(seed=11).get("bw-tests")


class TestContendedBandwidth:
    def test_rate_within_share_bounds(self, rng):
        m = ContendedBandwidth(10e6, rng, min_share=0.2, max_share=0.8)
        rates = [m.rate_at(t) for t in range(0, 3000, 13)]
        assert all(10e6 * 0.2 * 0.99 <= r <= 10e6 * 0.8 * 1.01 for r in rates)

    def test_constant_within_epoch(self, rng):
        m = ContendedBandwidth(10e6, rng, period=30.0)
        assert m.rate_at(40.0) == m.rate_at(55.0)

    def test_changes_across_epochs(self, rng):
        m = ContendedBandwidth(10e6, rng, period=30.0)
        rates = {m.rate_at(30.0 * k) for k in range(40)}
        assert len(rates) > 5

    def test_mean_rate(self, rng):
        m = ContendedBandwidth(10e6, rng, min_share=0.4, max_share=0.8)
        assert m.mean_rate() == pytest.approx(10e6 * 0.6)

    def test_monotonic_time_queries_consistent(self, rng):
        # Queries at increasing times within the same epoch agree.
        m = ContendedBandwidth(5e6, rng, period=10.0)
        r1 = m.rate_at(95.0)
        r2 = m.rate_at(99.9)
        assert r1 == r2

    def test_negative_time_rejected(self, rng):
        m = ContendedBandwidth(1e6, rng)
        with pytest.raises(ValueError):
            m.rate_at(-1.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ContendedBandwidth(0.0, rng)
        with pytest.raises(ValueError):
            ContendedBandwidth(1e6, rng, min_share=0.0)
        with pytest.raises(ValueError):
            ContendedBandwidth(1e6, rng, min_share=0.9, max_share=0.5)
        with pytest.raises(ValueError):
            ContendedBandwidth(1e6, rng, period=0.0)
        with pytest.raises(ValueError):
            ContendedBandwidth(1e6, rng, alpha=0.0)
