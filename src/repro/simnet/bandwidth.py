"""Bandwidth (service-rate) models.

A bandwidth model answers "at what rate (bits/second) can this endpoint
move bulk data *right now*?".  The PlanetLab substitution needs two
effects on top of a nominal access rate:

* **Sliver contention** — a PlanetLab node hosts up to ~100 concurrent
  slivers; the share available to our slice varies over time.  Modelled
  by :class:`ContendedBandwidth`, which multiplies a nominal rate by a
  slowly varying load factor resampled on a fixed period (a bounded
  AR(1)-style random walk).
* **Diurnal modulation** — long transfers cross load peaks; modelled by
  :class:`DiurnalBandwidth` with a sinusoidal envelope.

Rates are strictly positive; models expose :meth:`rate_at` for
time-varying inspection and :meth:`mean_rate` for planning estimates
(the broker's ready-time estimator uses the latter).
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.simnet.rng import Draws

__all__ = [
    "BandwidthModel",
    "ConstantBandwidth",
    "ContendedBandwidth",
    "DiurnalBandwidth",
]


class BandwidthModel(Protocol):
    """Anything that yields an instantaneous service rate in bits/s."""

    def rate_at(self, now: float) -> float:
        """Instantaneous available rate (bits/s, > 0) at time ``now``."""
        ...

    def mean_rate(self) -> float:
        """Long-run average rate (bits/s) for planning purposes."""
        ...


class ConstantBandwidth:
    """A fixed service rate."""

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be > 0, got {rate_bps}")
        self._rate = float(rate_bps)

    def rate_at(self, now: float) -> float:
        return self._rate

    def mean_rate(self) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"ConstantBandwidth({self._rate:g} bps)"


class ContendedBandwidth:
    """Nominal rate scaled by a slowly varying contention factor.

    The available fraction follows a bounded random walk: every
    ``period`` seconds the factor moves toward a new target drawn from
    ``Uniform(min_share, max_share)`` with smoothing ``alpha``:

        share <- (1 - alpha) * share + alpha * target

    Sampling is *lazy and deterministic in simulated time*: the factor
    for epoch ``k`` depends only on the stream state, and epochs are
    advanced in order, so all queries inside one epoch agree.
    """

    def __init__(
        self,
        nominal_bps: float,
        rng: Draws,
        min_share: float = 0.2,
        max_share: float = 1.0,
        period: float = 30.0,
        alpha: float = 0.5,
    ) -> None:
        if nominal_bps <= 0:
            raise ValueError(f"nominal rate must be > 0, got {nominal_bps}")
        if not 0 < min_share <= max_share <= 1.0:
            raise ValueError(
                f"need 0 < min_share <= max_share <= 1, got [{min_share}, {max_share}]"
            )
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.nominal = float(nominal_bps)
        self.min_share = float(min_share)
        self.max_share = float(max_share)
        self.period = float(period)
        self.alpha = float(alpha)
        self._rng = rng
        self._epoch = -1
        self._share = 0.5 * (min_share + max_share)

    def _advance_to(self, epoch: int) -> None:
        while self._epoch < epoch:
            self._epoch += 1
            target = self._rng.uniform(self.min_share, self.max_share)
            self._share = (1.0 - self.alpha) * self._share + self.alpha * target

    def rate_at(self, now: float) -> float:
        if now < 0:
            raise ValueError(f"time must be >= 0, got {now}")
        self._advance_to(int(now // self.period))
        return self.nominal * self._share

    def mean_rate(self) -> float:
        return self.nominal * 0.5 * (self.min_share + self.max_share)

    def __repr__(self) -> str:
        return (
            f"ContendedBandwidth({self.nominal:g} bps, "
            f"share=[{self.min_share:g},{self.max_share:g}], "
            f"period={self.period:g}s)"
        )


class DiurnalBandwidth:
    """A base model modulated by a sinusoidal daily envelope.

    ``rate(t) = base.rate_at(t) * (1 - depth/2 + depth/2 * cos(2*pi*(t - peak)/day))``

    so the rate dips by up to ``depth`` at the busiest time of day.
    """

    DAY = 86_400.0

    def __init__(
        self, base: BandwidthModel, depth: float = 0.3, peak_offset: float = 0.0
    ) -> None:
        if not 0 <= depth < 1:
            raise ValueError(f"depth must be in [0, 1), got {depth}")
        self.base = base
        self.depth = float(depth)
        self.peak_offset = float(peak_offset)

    def rate_at(self, now: float) -> float:
        phase = 2.0 * math.pi * (now - self.peak_offset) / self.DAY
        envelope = 1.0 - 0.5 * self.depth + 0.5 * self.depth * math.cos(phase)
        return self.base.rate_at(now) * envelope

    def mean_rate(self) -> float:
        return self.base.mean_rate() * (1.0 - 0.5 * self.depth)

    def __repr__(self) -> str:
        return f"DiurnalBandwidth({self.base!r}, depth={self.depth:g})"
