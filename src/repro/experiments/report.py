"""ASCII rendering of experiment results.

Each figure module produces a result object with a ``table()`` method;
these helpers render aligned text tables and simple horizontal bar
charts so the benchmark harness prints the same rows/series the paper's
figures show.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

__all__ = ["render_table", "render_bars", "render_grouped_bars"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    series: Mapping[str, float],
    unit: str = "",
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Render a horizontal bar chart of label -> value."""
    if not series:
        raise ValueError("no series to render")
    peak = max(series.values())
    scale = (width / peak) if peak > 0 else 0.0
    label_w = max(len(k) for k in series)
    lines = []
    if title:
        lines.append(title)
    for label, value in series.items():
        bar = "#" * max(int(round(value * scale)), 0)
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def render_grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    unit: str = "",
    width: int = 36,
    title: Optional[str] = None,
) -> str:
    """Render grouped horizontal bars: group -> series -> value.

    Matches the paper's two-series figures (e.g. Figure 5's per-peer
    whole/4/16 bars); all bars share one scale so groups compare.
    """
    if not groups:
        raise ValueError("no groups to render")
    values = [v for series in groups.values() for v in series.values()]
    if not values:
        raise ValueError("groups contain no series")
    peak = max(values)
    scale = (width / peak) if peak > 0 else 0.0
    group_w = max(len(g) for g in groups)
    series_w = max(len(s) for series in groups.values() for s in series)
    lines = []
    if title:
        lines.append(title)
    for group, series in groups.items():
        for i, (name, value) in enumerate(series.items()):
            label = group if i == 0 else ""
            bar = "#" * max(int(round(value * scale)), 0)
            lines.append(
                f"{label.ljust(group_w)}  {name.ljust(series_w)} | "
                f"{bar} {value:.2f}{unit}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
