"""Loss and failure models.

The central mechanism behind the paper's Figure 5 (whole-file transfer
losing badly to 16-part transfer) is *loss amplification*: the overlay
acknowledges whole transfer units, so when a unit is corrupted or the
connection stalls, the **entire unit** is retransmitted.  The expected
number of transmissions of a unit of ``n`` Mb under an independent
per-Mb success probability ``p`` is ``(1/p)**n`` — exponential in the
unit size — so a 100 Mb unit is catastrophically more expensive than
sixteen 6.25 Mb units even though the same bytes cross the wire.

:class:`PerUnitLoss` implements exactly that Bernoulli model.
"""

from __future__ import annotations

from repro.simnet.rng import Draws
from repro.units import to_mbit

__all__ = ["PerUnitLoss", "NoLoss", "NO_LOSS"]


class NoLoss:
    """A loss model that never drops anything."""

    def unit_lost(self, size_bits: float, now: float) -> bool:
        return False

    def success_probability(self, size_bits: float) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "NoLoss()"


#: The no-fault model every host starts with.  It is stateless, so all
#: hosts share it, and ``Host.send`` skips a host's extra-loss draw by
#: identity with it.
NO_LOSS = NoLoss()


class PerUnitLoss:
    """Independent per-Mb loss applied to whole transfer units.

    ``per_mb_loss`` is the probability that any given megabit of a unit
    is corrupted; a unit is lost (and must be fully retransmitted) if
    *any* of its megabits is.  Hence

        P(unit of s Mb survives) = (1 - per_mb_loss) ** s
    """

    def __init__(self, per_mb_loss: float, rng: Draws) -> None:
        if not 0 <= per_mb_loss < 1:
            raise ValueError(f"per_mb_loss must be in [0, 1), got {per_mb_loss}")
        self.per_mb_loss = float(per_mb_loss)
        self._rng = rng
        #: Last unit size asked about and its survival probability.
        #: Control messages share one size, so between bulk units the
        #: pow is not recomputed.  NaN matches no size.
        self._memo_bits = float("nan")
        self._memo_ok = 1.0

    def success_probability(self, size_bits: float) -> float:
        """Probability that a unit of ``size_bits`` arrives intact."""
        return (1.0 - self.per_mb_loss) ** to_mbit(size_bits)

    def unit_lost(self, size_bits: float, now: float) -> bool:
        """Sample whether a unit of ``size_bits`` is lost in transit."""
        if self.per_mb_loss == 0.0:
            return False
        if size_bits != self._memo_bits:
            self._memo_ok = self.success_probability(size_bits)
            self._memo_bits = size_bits
        return self._rng.random() >= self._memo_ok

    def expected_transmissions(self, size_bits: float) -> float:
        """Mean sends needed until one succeeds (geometric mean 1/p)."""
        p = self.success_probability(size_bits)
        if p <= 0.0:
            return float("inf")
        return 1.0 / p

    def __repr__(self) -> str:
        return f"PerUnitLoss(per_mb_loss={self.per_mb_loss:g})"
