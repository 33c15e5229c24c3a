"""Bandwidth (service-rate) models.

A bandwidth model answers "at what rate (bits/second) can this endpoint
move bulk data *right now*?".  The PlanetLab substitution needs one
effect on top of a nominal access rate: **sliver contention**.  A
PlanetLab node hosts up to ~100 concurrent slivers, so the share
available to our slice varies over time.  :class:`ContendedBandwidth`
multiplies a nominal rate by a slowly varying load factor resampled on
a fixed period (a bounded AR(1)-style random walk).

Rates are strictly positive; the model exposes :meth:`rate_at` for
time-varying inspection and :meth:`mean_rate` for planning estimates
(the broker's ready-time estimator uses the latter).
"""

from __future__ import annotations

from repro.simnet.rng import Draws

__all__ = [
    "ContendedBandwidth",
]


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
