"""Process-wide active registry.

Sessions and networks read the *active* registry at construction time,
so enabling metrics for a whole experiment run is one call::

    with use_registry(MetricsRegistry()) as reg:
        fig2_petition.run(config)
    print(summary_table(reg))

The default active registry is the shared no-op
:data:`~repro.obs.metrics.NULL_REGISTRY`, which keeps every
instrumented hot path at one no-op call — instrumentation costs
nothing unless somebody is watching.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = ["active_registry", "use_registry"]

_active: MetricsRegistry = NULL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The registry new components should bind to."""
    return _active


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the active one for the ``with`` block, then
    restore the previous one."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
