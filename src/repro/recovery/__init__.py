"""Self-healing: checkpoint/resume, broker failover, degraded-mode
selection.

The recovery subsystem turns the fault-injection layer's disruptions
(:mod:`repro.faults`) from lost work into bounded delays:

* checkpoint/resume — the supervised delivery driver
  (:class:`~repro.swarm.coordinator.SwarmCoordinator`, fixed at the
  sender) proves each confirmed part in its piece tracker and resumes
  a failed send on a different peer with only the unproven parts;
* :mod:`repro.recovery.standby` — standby-broker replication and
  deterministic leader handover;
* :mod:`repro.recovery.degraded` — staleness-aware fallbacks for the
  cost and economic selection models;
* :mod:`repro.recovery.config` — the knobs, embedded in
  :class:`~repro.experiments.scenario.ExperimentConfig`.
"""

from repro.recovery.config import RecoveryConfig
from repro.recovery.degraded import (
    StalenessAwareEvaluator,
    StalenessAwareScheduler,
)
from repro.recovery.standby import FailoverDirector, FailoverEvent

__all__ = [
    "RecoveryConfig",
    "FailoverDirector",
    "FailoverEvent",
    "StalenessAwareEvaluator",
    "StalenessAwareScheduler",
]
