"""Peer-selection models — the paper's subject.

Three informed models (paper §2) plus blind baselines:

* :class:`.scheduling.SchedulingBasedSelector` — economic scheduling:
  provision idle peers, rank by broker-estimated ready/completion time,
  CPU-speed tiebreak, optional reservation.
* :class:`.evaluator.DataEvaluatorSelector` — weighted cost over the
  §2.2 criteria catalog; ``"same_priority"`` = uniform weights.
* :class:`.preference.UserPreferenceSelector` — the user's frozen
  experience table (the paper's quick-peer mode).
* :class:`.blind.RoundRobinSelector` — the blind baseline.
"""

from repro.selection.base import (
    PeerSelector,
    RankedCandidate,
    SelectionContext,
    Workload,
)
from repro.selection.blind import RoundRobinSelector
from repro.selection.criteria import (
    CRITERIA,
    WEIGHT_PROFILES,
    criterion_utility,
    evaluate_snapshot,
    normalize_weights,
)
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.hybrid import HybridSelector
from repro.selection.preference import PreferenceTable, UserPreferenceSelector
from repro.selection.readytime import ReadyTimeEstimate, ReadyTimeEstimator
from repro.selection.scheduling import SchedulingBasedSelector

__all__ = [
    "Workload",
    "SelectionContext",
    "PeerSelector",
    "RankedCandidate",
    "ReadyTimeEstimator",
    "ReadyTimeEstimate",
    "SchedulingBasedSelector",
    "DataEvaluatorSelector",
    "HybridSelector",
    "UserPreferenceSelector",
    "PreferenceTable",
    "RoundRobinSelector",
    "CRITERIA",
    "WEIGHT_PROFILES",
    "criterion_utility",
    "evaluate_snapshot",
    "normalize_weights",
]
