"""Latency models.

A latency model answers "how long does one message/packet take to cross
this link *right now*?".  Models are callables of the simulation time
and draw jitter from a dedicated random stream, so two links with the
same parameters still see independent noise.

The PlanetLab calibration (see :mod:`repro.simnet.planetlab`) uses
:class:`LognormalLatency` for WAN paths — heavy right tails are what the
paper's Figure 2 exhibits (petition times from 0.04 s to 27 s) — and
:class:`ConstantLatency` for LAN/self paths.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.simnet.rng import Draws

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "SpikyLatency",
]


class LatencyModel(Protocol):
    """Anything that yields a per-message delay sample in seconds."""

    def sample(self, now: float) -> float:
        """Return one delay sample (seconds, >= 0) at simulation time ``now``."""
        ...

    @property
    def mean(self) -> float:
        """The model's long-run mean delay in seconds."""
        ...


class ConstantLatency:
    """A fixed, deterministic delay."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"latency must be >= 0, got {delay}")
        self._delay = float(delay)

    def sample(self, now: float) -> float:
        return self._delay

    @property
    def mean(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self._delay:g})"


class UniformLatency:
    """Uniform jitter in ``[low, high]``."""

    def __init__(self, low: float, high: float, rng: Draws) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self._rng = rng

    def sample(self, now: float) -> float:
        return float(self._rng.uniform(self.low, self.high))

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low:g}, {self.high:g}])"


class LognormalLatency:
    """Lognormal delay parameterized by its *mean* and coefficient of variation.

    WAN one-way delays and application-level petition latencies are
    well described by lognormals; we parameterize by the desired mean
    ``m`` and CV ``c`` and derive the underlying normal's ``mu, sigma``:

    ``sigma^2 = ln(1 + c^2)``, ``mu = ln(m) - sigma^2 / 2``.
    """

    def __init__(self, mean: float, cv: float, rng: Draws) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if cv < 0:
            raise ValueError(f"cv must be >= 0, got {cv}")
        self._mean = float(mean)
        self.cv = float(cv)
        self._rng = rng
        if cv == 0:
            self._sigma = 0.0
            self._mu = math.log(mean)
        else:
            self._sigma = math.sqrt(math.log(1.0 + cv * cv))
            self._mu = math.log(mean) - 0.5 * self._sigma * self._sigma

    def sample(self, now: float) -> float:
        if self._sigma == 0.0:
            return self._mean
        return float(self._rng.lognormal(self._mu, self._sigma))

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"LognormalLatency(mean={self._mean:g}, cv={self.cv:g})"


class SpikyLatency:
    """A base model plus occasional large spikes.

    With probability ``spike_prob`` a sample is multiplied by
    ``spike_factor`` — the "sliver got descheduled" behaviour that makes
    some PlanetLab nodes take tens of seconds just to acknowledge a
    petition (paper Figure 2, node SC7).
    """

    def __init__(
        self,
        base: LatencyModel,
        spike_prob: float,
        spike_factor: float,
        rng: Draws,
    ) -> None:
        if not 0 <= spike_prob <= 1:
            raise ValueError(f"spike_prob must be in [0,1], got {spike_prob}")
        if spike_factor < 1:
            raise ValueError(f"spike_factor must be >= 1, got {spike_factor}")
        self.base = base
        self.spike_prob = float(spike_prob)
        self.spike_factor = float(spike_factor)
        self._rng = rng

    def sample(self, now: float) -> float:
        x = self.base.sample(now)
        if self.spike_prob and self._rng.random() < self.spike_prob:
            x *= self.spike_factor
        return x

    @property
    def mean(self) -> float:
        return self.base.mean * (
            1.0 + self.spike_prob * (self.spike_factor - 1.0)
        )

    def __repr__(self) -> str:
        return (
            f"SpikyLatency({self.base!r}, p={self.spike_prob:g}, "
            f"x{self.spike_factor:g})"
        )
