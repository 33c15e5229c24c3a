"""Tests for latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simnet.latency import LognormalLatency, SpikyLatency
from repro.simnet.rng import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(seed=7).get("latency-tests")


class TestLognormalLatency:
    def test_empirical_mean_matches(self, rng):
        m = LognormalLatency(mean=2.0, cv=0.3, rng=rng)
        xs = np.array([m.sample(0.0) for _ in range(4000)])
        assert xs.mean() == pytest.approx(2.0, rel=0.05)

    def test_zero_cv_is_deterministic(self, rng):
        m = LognormalLatency(mean=1.5, cv=0.0, rng=rng)
        assert m.sample(0.0) == pytest.approx(1.5)
        assert m.sample(9.0) == pytest.approx(1.5)

    def test_samples_positive(self, rng):
        m = LognormalLatency(mean=0.05, cv=1.0, rng=rng)
        assert all(m.sample(0.0) > 0 for _ in range(500))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            LognormalLatency(mean=0.0, cv=0.3, rng=rng)
        with pytest.raises(ValueError):
            LognormalLatency(mean=1.0, cv=-0.1, rng=rng)

    def test_cv_controls_spread(self, rng):
        tight = LognormalLatency(mean=1.0, cv=0.05, rng=rng)
        wide = LognormalLatency(mean=1.0, cv=1.0, rng=rng)
        xs_tight = np.array([tight.sample(0.0) for _ in range(2000)])
        xs_wide = np.array([wide.sample(0.0) for _ in range(2000)])
        assert xs_tight.std() < xs_wide.std()


def _one_second(rng):
    """A zero-spread base model: every sample is 1.0 s."""
    return LognormalLatency(mean=1.0, cv=0.0, rng=rng)


class TestSpikyLatency:
    def test_mean_accounts_for_spikes(self, rng):
        base = _one_second(rng)
        m = SpikyLatency(base, spike_prob=0.1, spike_factor=3.0, rng=rng)
        assert m.mean == pytest.approx(1.2)

    def test_no_spikes_when_prob_zero(self, rng):
        m = SpikyLatency(_one_second(rng), 0.0, 5.0, rng)
        assert all(m.sample(0.0) == 1.0 for _ in range(100))

    def test_spikes_occur(self, rng):
        m = SpikyLatency(_one_second(rng), 0.5, 4.0, rng)
        xs = [m.sample(0.0) for _ in range(400)]
        spikes = sum(1 for x in xs if x > 3.9)
        assert 100 < spikes < 300  # ~50 % of 400

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SpikyLatency(_one_second(rng), 1.5, 2.0, rng)
        with pytest.raises(ValueError):
            SpikyLatency(_one_second(rng), 0.1, 0.5, rng)
