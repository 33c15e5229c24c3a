"""Summary statistics for experiment results.

Small, dependency-light helpers: the per-series mean/std/CI the
experiment reports and shape-checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "Summary",
    "summarize",
    "summaries_identical",
]


@dataclass(frozen=True)
class Summary:
    """Mean/std/count of one measurement series."""

    mean: float
    std: float
    n: int
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n <= 1:
            return 0.0
        return self.std / math.sqrt(self.n)

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95 % confidence interval of the mean."""
        half = 1.96 * self.sem
        return (self.mean - half, self.mean + half)

    def identical(self, other: "Summary") -> bool:
        """Field-wise bit-equality, except NaN matches NaN.

        ``==`` follows IEEE semantics (``nan != nan``), which makes two
        runs of the *same* experiment compare unequal whenever a series
        is undefined (e.g. a baseline cell's recovery time).  Identity
        checks — the parallel-vs-serial equivalence proof — use this.
        """
        return (
            self.n == other.n
            and _floats_identical(self.mean, other.mean)
            and _floats_identical(self.std, other.std)
            and _floats_identical(self.minimum, other.minimum)
            and _floats_identical(self.maximum, other.maximum)
        )


def _floats_identical(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def summaries_identical(
    a: Mapping[str, Summary], b: Mapping[str, Summary]
) -> bool:
    """True when two summary maps agree key-for-key, NaN matching NaN."""
    if set(a) != set(b):
        return False
    return all(a[key].identical(b[key]) for key in a)


def summarize(values: Sequence[float]) -> Summary:
    """Summary of a non-empty series."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarize an empty series")
    n = len(vals)
    mean = sum(vals) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    else:
        var = 0.0
    return Summary(
        mean=mean, std=math.sqrt(var), n=n, minimum=min(vals), maximum=max(vals)
    )
