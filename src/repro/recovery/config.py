"""Recovery configuration.

One frozen knob bundle covers the three recovery pillars; setting it
at all switches every pillar and partition-aware flow gating on:

* **resume** — part-level transfer checkpoint/resume driven by a
  :class:`~repro.recovery.ledger.TransferLedger` and the
  :class:`~repro.recovery.resume.ResumableSender`;
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

    # -- transfer checkpoint/resume ---------------------------------------
    #: Total attempts per file (first try + resumes).
    max_transfer_attempts: int = 4
    #: Pause before re-petitioning after an interrupted attempt.
    resume_backoff_s: float = 5.0
    #: Deadline-bounded supervision: a petition queued behind an outage
    #: is abandoned (not silently stalled) once this budget is spent.
    petition_deadline_s: float = 240.0
    #: Poll period while waiting out the sender's own outage.
    supervision_poll_s: float = 5.0

    # -- broker failover ---------------------------------------------------
    #: Primary -> standby state-replication period.
    replication_interval_s: float = 30.0

    # -- degraded-mode selection -------------------------------------------
    #: Inputs older than this are considered stale.
    staleness_budget_s: float = 180.0

    def __post_init__(self) -> None:
        if self.max_transfer_attempts < 1:
            raise ConfigError("max_transfer_attempts must be >= 1")
        for name in (
            "resume_backoff_s",
            "petition_deadline_s",
            "supervision_poll_s",
            "replication_interval_s",
            "staleness_budget_s",
        ):
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
