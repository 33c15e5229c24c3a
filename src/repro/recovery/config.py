"""Recovery configuration.

One frozen knob bundle covers the three recovery pillars; setting it
at all switches every pillar and partition-aware flow gating on:

* **resume** — a placement is a supervised delivery
  (:class:`~repro.swarm.coordinator.SwarmCoordinator` fixed at the
  sending broker, one receiver at a time) whose
  :class:`~repro.swarm.pieces.PieceTracker` lets a replacement
  receiver skip the parts already proven.  It has no knobs: a failed
  receiver is replaced at once, and the caller's run deadline bounds
  the delivery;
* **failover** — a standby broker receiving periodic state replication
  with deterministic leader handover (see
  :class:`~repro.recovery.standby.FailoverDirector`);
* **degraded-mode selection** — the staleness-aware variants of the
  cost and economic selection models (see :mod:`repro.recovery.degraded`).

The whole bundle rides on
:class:`~repro.experiments.scenario.ExperimentConfig` (``recovery``
field) and round-trips through JSON like the rest of the experiment
configuration, so a resilience run with recovery enabled is exactly as
reproducible as one without.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["RecoveryConfig"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for the self-healing layer."""

    # -- broker failover ---------------------------------------------------
    #: Primary -> standby state-replication period.
    replication_interval_s: float = 30.0

    # -- degraded-mode selection -------------------------------------------
    #: Inputs older than this are considered stale.
    staleness_budget_s: float = 180.0

    def __post_init__(self) -> None:
        for name in ("replication_interval_s", "staleness_budget_s"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown recovery keys: {sorted(unknown)}")
        return cls(**data)
