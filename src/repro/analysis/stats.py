"""Summary statistics for experiment results.

Small, dependency-light helpers: the per-series mean/std the
experiment reports and shape-checks use.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
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


def summaries_identical(
    a: Mapping[str, Summary], b: Mapping[str, Summary]
) -> bool:
    """True when two summary maps agree key for key and field for
    field, bit for bit, except that NaN matches NaN.

    ``==`` follows IEEE semantics (``nan != nan``), which makes two
    runs of the *same* experiment compare unequal whenever a series is
    undefined (e.g. a baseline cell's recovery time).  Identity checks
    — the parallel-vs-serial equivalence proof — use this.
    """
    if set(a) != set(b):
        return False
    return all(
        x == y or (math.isnan(x) and math.isnan(y))
        for key in a
        for x, y in zip(astuple(a[key]), astuple(b[key]))
    )


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
