"""Unit helpers shared across the library.

The paper reports file sizes in *megabits* ("Mb") and times in seconds
or minutes depending on the figure.  To keep every internal computation
unambiguous the library uses **bits** for data sizes and **seconds** for
time; this module provides the conversion helpers and a few formatting
utilities used by the experiment reports.
"""

from __future__ import annotations

__all__ = [
    "MEGA",
    "mbit",
    "to_mbit",
    "to_minutes",
    "fmt_seconds",
    "fmt_minutes",
]

#: Decimal multiplier (network convention: 1 Mb = 1e6 bits).
MEGA = 1_000_000.0


def mbit(n: float) -> float:
    """Return ``n`` megabits expressed in bits."""
    return float(n) * MEGA


def to_mbit(bits: float) -> float:
    """Convert a size in bits to megabits."""
    return float(bits) / MEGA


def to_minutes(seconds: float) -> float:
    """Convert a duration in seconds to minutes."""
    return float(seconds) / 60.0


def fmt_seconds(seconds: float) -> str:
    """Format a duration in seconds for report tables (e.g. ``'12.86 s'``)."""
    return f"{seconds:.2f} s"


def fmt_minutes(seconds: float) -> str:
    """Format a duration (given in seconds) as minutes (e.g. ``'1.70 min'``)."""
    return f"{to_minutes(seconds):.2f} min"

