"""Self-healing: checkpoint/resume, broker failover, degraded-mode
selection.

The recovery subsystem turns the fault-injection layer's disruptions
(:mod:`repro.faults`) from lost work into bounded delays:

* :mod:`repro.recovery.ledger` — part-level transfer checkpoints with
  integrity digests; the supervised delivery driver
  (:class:`~repro.swarm.coordinator.SwarmCoordinator`, fixed at the
  sender) writes them and resumes a failed send from the last verified
  part on a different peer;
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
from repro.recovery.ledger import LedgerEntry, PartProof, TransferLedger
from repro.recovery.standby import FailoverDirector, FailoverEvent

__all__ = [
    "RecoveryConfig",
    "TransferLedger",
    "LedgerEntry",
    "PartProof",
    "FailoverDirector",
    "FailoverEvent",
    "StalenessAwareEvaluator",
    "StalenessAwareScheduler",
]
