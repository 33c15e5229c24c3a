"""Low-overhead metrics primitives: counters, gauges, histograms.

The registry is the single entry point: components ask it for named
instruments once (at construction time) and then update them on the hot
path.  Two implementations share the interface:

* :class:`MetricsRegistry` — the real thing; accumulates values and
  exports them (see :mod:`repro.obs.export`).
* :class:`NullRegistry` — the default everywhere; hands out shared
  no-op instruments so instrumented code pays one no-op call (or
  nothing at all, when call sites guard on ``registry.enabled``).

All timing goes through :func:`span`, which reads a *clock* — in this
repo always ``Simulator.now`` — so measurements are simulation-time
and runs stay deterministic regardless of host load.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Sequence, Tuple

from repro.obs.metric_catalog import METRIC_CATALOG

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RATE_BUCKETS",
    "span",
]

#: Upper bounds (seconds) tuned to the paper's latency range: petition
#: receptions span 0.04 s .. 27 s (Figure 2), transfers run to minutes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
)

#: Upper bounds for rate-like observations (Mbit/s goodput).
DEFAULT_RATE_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time value; tracks the max it has ever held."""

    __slots__ = ("name", "value", "max_value", "_set_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self._set_count = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value
        if value > self.max_value or self._set_count == 0:
            self.max_value = value
        self._set_count += 1

    def track_max(self, value: float) -> None:
        """Update only the high-water mark (cheaper than :meth:`set`)."""
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value:g} max={self.max_value:g}>"


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    Buckets are cumulative-free: ``counts[i]`` holds observations with
    ``value <= bounds[i]`` and greater than the previous bound; the
    last slot is the overflow (``> bounds[-1]``).  Fixed bounds keep
    observation O(log n_buckets) and memory constant.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"histogram {name}: bounds must strictly increase")
        self.name = name
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # First bucket with ``v <= bound``; NaN compares false against
        # every bound, so it goes to the overflow slot, not slot 0.
        if v != v:
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self.bounds, v)] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (nan when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound).

        Coarse by construction — use it for summary tables, not for
        figure data (the experiments keep exact per-sample series).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "p50": self.quantile(0.5) if self.count else None,
            "p90": self.quantile(0.9) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
            "buckets": [
                {"le": self.bounds[i] if i < len(self.bounds) else None,
                 "count": c}
                for i, c in enumerate(self.counts)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


def _check_declared(name: str, kind: str) -> None:
    """Raise ValueError unless ``name`` is catalogued as a ``kind``.

    :mod:`repro.obs.metric_catalog` gives each name one kind, so this
    also keeps one name from being used as two kinds.
    """
    spec = METRIC_CATALOG.get(name)
    if spec is None:
        import difflib

        close = difflib.get_close_matches(name, METRIC_CATALOG, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"metric {name!r} is not declared in repro.obs.metric_catalog{hint}"
        )
    if spec.kind != kind:
        raise ValueError(
            f"metric {name!r} is declared as a {spec.kind}, not a {kind}"
        )


class MetricsRegistry:
    """Named instrument factory and store.

    Instruments are created on first request and shared thereafter.
    Every name must be declared in :mod:`repro.obs.metric_catalog`
    with the kind asked for (:func:`_check_declared`).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- factories ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            _check_declared(name, "counter")
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            _check_declared(name, "gauge")
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` only applies on creation; later callers get the
        existing instrument whatever bounds they pass.
        """
        h = self._histograms.get(name)
        if h is None:
            _check_declared(name, "histogram")
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # -- views -------------------------------------------------------------

    def counters(self) -> Dict[str, Counter]:
        """All counters by name (live view copies)."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """All gauges by name."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """All histograms by name."""
        return dict(self._histograms)

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s values into this registry.

        Counters and histogram contents add; gauges keep the max of
        the high-water marks and the other's last value.  Used to
        combine per-repetition registries into one report.
        """
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, g in other._gauges.items():
            mine = self.gauge(name)
            mine.set(g.value)
            mine.track_max(g.max_value)
        for name, h in other._histograms.items():
            mine = self.histogram(name, h.bounds)
            if mine.bounds != h.bounds:
                raise ValueError(f"histogram {name!r}: bucket bounds differ")
            mine.count += h.count
            mine.sum += h.sum
            if h.count:
                mine.min = min(mine.min, h.min)
                mine.max = max(mine.max, h.max)
            for i, c in enumerate(h.counts):
                mine.counts[i] += c

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "max": g.max_value}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0.0
    max_value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def track_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing.

    The default wherever instrumentation is wired: call sites can hold
    its instruments and call them freely (no-ops), or skip work
    entirely by checking :attr:`enabled`.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        _check_declared(name, "counter")
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        _check_declared(name, "gauge")
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, bounds=DEFAULT_LATENCY_BUCKETS):  # type: ignore[override]
        _check_declared(name, "histogram")
        return _NULL_INSTRUMENT  # type: ignore[return-value]


#: Process-wide shared no-op registry (immutable by construction).
NULL_REGISTRY = NullRegistry()


class span:
    """Context manager timing a block on a simulation clock.

    ``clock`` is any object with a ``now`` attribute (a
    :class:`~repro.simnet.kernel.Simulator`); the elapsed *simulation*
    time is observed into ``histogram`` on exit.  Works inside
    generator processes because the clock is read lazily::

        with span(metrics.histogram("overlay.discovery_latency_s"), sim):
            advs = yield from sim.call(peer.discovery.query("peer"))

    A span over a no-op histogram costs two attribute reads.
    """

    __slots__ = ("histogram", "clock", "started_at")

    def __init__(self, histogram: Histogram, clock: Any) -> None:
        self.histogram = histogram
        self.clock = clock
        self.started_at = 0.0

    def __enter__(self) -> "span":
        self.started_at = self.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.histogram.observe(self.clock.now - self.started_at)

    @property
    def elapsed(self) -> float:
        """Simulation seconds since entry (usable mid-block)."""
        return self.clock.now - self.started_at
