"""Raw-speed tooling: parallel sweeps.

The experiments' repetition×policy×profile sweeps are embarrassingly
parallel — every repetition is an isolated :class:`Session` whose seed
is derived only from the config — so :mod:`repro.perf.parallel` fans
them out over worker processes with a merge step that is bit-identical
to the serial path by construction (both paths fold the same per-task
subtotals in the same order).

Host cost (wall time, set-up, memory, per-layer breakdown) is measured
by the repository benchmark, ``python -m benchmarks.suite``.
"""

from repro.perf.parallel import (
    available_cpus,
    get_default_workers,
    pmap,
    resolve_workers,
    set_default_workers,
)

__all__ = [
    "available_cpus",
    "get_default_workers",
    "pmap",
    "resolve_workers",
    "set_default_workers",
]
