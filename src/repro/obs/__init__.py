"""Observability: metrics registry, sim-time spans, bounded tracing.

See ``docs/API.md`` (Observability section).  Everything here is
dependency-free within the package except :class:`EventTrace`'s reuse
of :class:`repro.simnet.trace.TraceEvent`, so any layer may import it.
"""

from repro.obs.export import (
    metrics_to_dict,
    summary_table,
    write_metrics,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RATE_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    span,
)
from repro.obs.runtime import active_registry, install_registry, use_registry
from repro.obs.trace import EventTrace

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
    "EventTrace",
    "active_registry",
    "install_registry",
    "use_registry",
    "metrics_to_dict",
    "summary_table",
    "write_metrics",
]
