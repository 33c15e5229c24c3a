"""Metrics and trace export: JSON, CSV, and a plain-text summary.

The experiments CLI (``python -m repro --metrics-out``) and
``examples/reproduce_paper.py`` call :func:`write_metrics` after the
run; tests and notebooks use :func:`summary_table` for a quick look.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTrace

__all__ = [
    "metrics_to_dict",
    "write_metrics",
    "summary_table",
]


def metrics_to_dict(
    registry: MetricsRegistry, trace: Optional[EventTrace] = None
) -> dict:
    """Full JSON-friendly snapshot (optionally including trace events)."""
    out = registry.to_dict()
    if trace is not None:
        out["trace"] = {
            "capacity": trace.capacity,
            "seen": trace.seen,
            "dropped": trace.dropped,
            "events": [
                {"kind": e.kind, "time": e.time, **e.attrs} for e in trace
            ],
        }
    return out


def write_metrics(
    registry: MetricsRegistry,
    path: Any,
    trace: Optional[EventTrace] = None,
) -> Path:
    """Write the registry (and optional trace) to ``path``.

    The format follows the suffix: ``.csv`` emits flat rows
    ``kind,name,field,value``; anything else gets indented JSON.
    Returns the path written.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("kind", "name", "field", "value"))
            for name, c in sorted(registry.counters().items()):
                w.writerow(("counter", name, "value", c.value))
            for name, g in sorted(registry.gauges().items()):
                w.writerow(("gauge", name, "value", g.value))
                w.writerow(("gauge", name, "max", g.max_value))
            for name, h in sorted(registry.histograms().items()):
                d = h.to_dict()
                for fieldname in ("count", "sum", "min", "max", "mean",
                                  "p50", "p90", "p99"):
                    w.writerow(("histogram", name, fieldname, d[fieldname]))
                for bucket in d["buckets"]:
                    le = bucket["le"] if bucket["le"] is not None else "inf"
                    w.writerow(("histogram", name, f"le={le}", bucket["count"]))
    else:
        path.write_text(
            json.dumps(metrics_to_dict(registry, trace), indent=2)
            + "\n"
        )
    return path


def _rows(registry: MetricsRegistry) -> Iterable[Tuple[str, str]]:
    for name, c in sorted(registry.counters().items()):
        yield name, f"{c.value:g}"
    for name, g in sorted(registry.gauges().items()):
        yield name, f"{g.value:g} (max {g.max_value:g})"
    for name, h in sorted(registry.histograms().items()):
        if h.count:
            yield name, (
                f"n={h.count} mean={h.mean:.4g} min={h.min:.4g} "
                f"max={h.max:.4g} p50~{h.quantile(0.5):.4g} "
                f"p99~{h.quantile(0.99):.4g}"
            )
        else:
            yield name, "n=0"


def summary_table(registry: MetricsRegistry, title: str = "metrics") -> str:
    """Readable two-column report of every instrument."""
    rows = list(_rows(registry))
    if not rows:
        return f"{title}: (no metrics recorded)"
    width = max(len(name) for name, _ in rows)
    lines = [title, "-" * len(title)]
    lines += [f"{name:<{width}}  {val}" for name, val in rows]
    return "\n".join(lines)
