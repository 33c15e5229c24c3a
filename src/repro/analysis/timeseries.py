"""Time-series aggregation over trace events.

The tracer (:mod:`repro.obs.trace`) records raw events; this module
buckets them into fixed windows for trend analysis — messages per
minute, goodput over time, retry bursts — and renders compact ASCII
sparklines.  Used by examples and diagnostics rather than the paper's
figures (which report run-level aggregates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.trace import EventTrace
from repro.simnet.trace import TraceEvent

__all__ = ["BucketSeries", "bucket_counts", "bucket_sums", "goodput_series"]


@dataclass(frozen=True)
class BucketSeries:
    """A regularly spaced series derived from trace events."""

    start: float
    bucket_s: float
    values: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def bucket_start(self, index: int) -> float:
        """Absolute time at which bucket ``index`` begins."""
        if not 0 <= index < len(self.values):
            raise IndexError(index)
        return self.start + index * self.bucket_s

    @property
    def total(self) -> float:
        """Sum over all buckets."""
        return sum(self.values)

    @property
    def peak(self) -> float:
        """Largest bucket value (0 for an empty series)."""
        return max(self.values) if self.values else 0.0

    def sparkline(self) -> str:
        """One-line ASCII trend."""
        from repro.experiments.report import render_sparkline

        if not self.values:
            return ""
        return render_sparkline(list(self.values))


def _bucketize(
    events: Sequence[TraceEvent],
    bucket_s: float,
    value_of: Callable[[TraceEvent], float],
    start: Optional[float],
    end: Optional[float],
) -> BucketSeries:
    if bucket_s <= 0:
        raise ValueError(f"bucket_s must be > 0, got {bucket_s}")
    if not events:
        base = start if start is not None else 0.0
        return BucketSeries(start=base, bucket_s=bucket_s, values=())
    t0 = start if start is not None else min(e.time for e in events)
    t1 = end if end is not None else max(e.time for e in events)
    if t1 < t0:
        raise ValueError(f"empty window [{t0}, {t1}]")
    n = max(int((t1 - t0) // bucket_s) + 1, 1)
    values: List[float] = [0.0] * n
    for event in events:
        if not t0 <= event.time <= t1:
            continue
        idx = min(int((event.time - t0) // bucket_s), n - 1)
        values[idx] += value_of(event)
    return BucketSeries(start=t0, bucket_s=bucket_s, values=tuple(values))


def bucket_counts(
    tracer: EventTrace,
    kind: str,
    bucket_s: float,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> BucketSeries:
    """Events of ``kind`` counted per bucket."""
    return _bucketize(
        tracer.of_kind(kind), bucket_s, lambda _e: 1.0, start, end
    )


def bucket_sums(
    tracer: EventTrace,
    kind: str,
    attr: str,
    bucket_s: float,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> BucketSeries:
    """Sum of a numeric event attribute per bucket (missing -> 0)."""
    return _bucketize(
        tracer.of_kind(kind),
        bucket_s,
        lambda e: float(e.get(attr, 0.0)),
        start,
        end,
    )


def goodput_series(
    tracer: EventTrace,
    bucket_s: float = 60.0,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> BucketSeries:
    """Delivered bits per second, bucketed from transfer-done events.

    Each successful reliable transfer contributes its size at its
    completion instant; dividing by the bucket width yields a goodput
    rate series.
    """
    sums = bucket_sums(
        tracer, "transfer-done", "size_bits", bucket_s, start, end
    )
    return BucketSeries(
        start=sums.start,
        bucket_s=sums.bucket_s,
        values=tuple(v / bucket_s for v in sums.values),
    )
