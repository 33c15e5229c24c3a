"""The data-evaluator criteria catalog — paper §2.2.

Each criterion maps a peer's statistics snapshot (see
:meth:`repro.overlay.statistics.PeerStats.snapshot`) to a *utility* in
``[0, 1]``, higher = better.  Percentage criteria pass through; queue
occupancies and pending counts are inverted via ``1/(1+x)``;
cancellation shares via ``1-x``.  The evaluator model then computes a
weighted sum.

The catalog covers every criterion the paper enumerates:

* **global (message) criteria** — % successfully sent messages in the
  current session / all sessions / the last *k* hours; outbox queue
  length now / average; inbox queue length now / average;
* **task-execution criteria** — % successfully executed tasks (session
  / total), % tasks accepted for execution (session / total);
* **file criteria** — % sent files (session / total), % cancelled
  transfers (session / total), number of pending transfers.

``WEIGHT_PROFILES`` provides the paper's "same priority" mode (uniform
weights) plus task-, transfer- and message-oriented profiles used by
the ablation benchmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

from repro.errors import CriteriaError

__all__ = [
    "CRITERIA",
    "CRITERION_INPUTS",
    "WEIGHT_PROFILES",
    "criterion_utility",
    "evaluate_snapshot",
    "normalize_weights",
]

_Snapshot = Mapping[str, float]


def _passthrough(key: str, default: float = 1.0) -> Callable[[_Snapshot], float]:
    def fn(snap: _Snapshot) -> float:
        return float(snap.get(key, default))

    fn.__name__ = f"share_{key}"
    return fn


def _inverse_count(key: str) -> Callable[[_Snapshot], float]:
    def fn(snap: _Snapshot) -> float:
        return 1.0 / (1.0 + max(float(snap.get(key, 0.0)), 0.0))

    fn.__name__ = f"inv_{key}"
    return fn


def _complement(key: str) -> Callable[[_Snapshot], float]:
    def fn(snap: _Snapshot) -> float:
        return 1.0 - min(max(float(snap.get(key, 0.0)), 0.0), 1.0)

    fn.__name__ = f"compl_{key}"
    return fn


#: criterion name -> utility function over a statistics snapshot.
CRITERIA: Dict[str, Callable[[_Snapshot], float]] = {
    # -- global (message) criteria --------------------------------------
    "messages_ok_session": _passthrough("pct_messages_ok_session"),
    "messages_ok_total": _passthrough("pct_messages_ok_total"),
    "messages_ok_last_k": _passthrough("pct_messages_ok_last_k"),
    "outbox_now": _inverse_count("outbox_len_now"),
    "outbox_avg": _inverse_count("outbox_len_avg"),
    "inbox_now": _inverse_count("inbox_len_now"),
    "inbox_avg": _inverse_count("inbox_len_avg"),
    # -- task-execution criteria ------------------------------------------
    "tasks_ok_session": _passthrough("pct_tasks_ok_session"),
    "tasks_ok_total": _passthrough("pct_tasks_ok_total"),
    "tasks_accepted_session": _passthrough("pct_tasks_accepted_session"),
    "tasks_accepted_total": _passthrough("pct_tasks_accepted_total"),
    # -- file criteria ----------------------------------------------------
    "files_sent_session": _passthrough("pct_files_sent_session"),
    "files_sent_total": _passthrough("pct_files_sent_total"),
    "transfers_cancelled_session": _complement("pct_transfers_cancelled_session"),
    "transfers_cancelled_total": _complement("pct_transfers_cancelled_total"),
    "pending_transfers": _inverse_count("pending_transfers"),
}


#: criterion name -> the snapshot keys it reads.  Degraded-mode
#: selection (see :mod:`repro.recovery.degraded`) uses this to decide
#: whether a criterion's inputs are stale for every candidate and can
#: therefore be dropped from the weight mapping.
CRITERION_INPUTS: Dict[str, tuple] = {
    "messages_ok_session": ("pct_messages_ok_session",),
    "messages_ok_total": ("pct_messages_ok_total",),
    "messages_ok_last_k": ("pct_messages_ok_last_k",),
    "outbox_now": ("outbox_len_now",),
    "outbox_avg": ("outbox_len_avg",),
    "inbox_now": ("inbox_len_now",),
    "inbox_avg": ("inbox_len_avg",),
    "tasks_ok_session": ("pct_tasks_ok_session",),
    "tasks_ok_total": ("pct_tasks_ok_total",),
    "tasks_accepted_session": ("pct_tasks_accepted_session",),
    "tasks_accepted_total": ("pct_tasks_accepted_total",),
    "files_sent_session": ("pct_files_sent_session",),
    "files_sent_total": ("pct_files_sent_total",),
    "transfers_cancelled_session": ("pct_transfers_cancelled_session",),
    "transfers_cancelled_total": ("pct_transfers_cancelled_total",),
    "pending_transfers": ("pending_transfers",),
}


def criterion_utility(name: str, snapshot: _Snapshot) -> float:
    """Utility of one named criterion for a snapshot (in [0, 1])."""
    fn = CRITERIA.get(name)
    if fn is None:
        raise CriteriaError(f"unknown criterion {name!r}")
    value = fn(snapshot)
    # Clamp against snapshots with out-of-range inputs.
    return min(max(value, 0.0), 1.0)


def normalize_weights(weights: Mapping[str, float]) -> Dict[str, float]:
    """Validate a weight mapping and scale it to sum to 1.

    Unknown criteria and negative weights raise
    :class:`~repro.errors.CriteriaError`; zero weights are allowed (the
    paper: "some are negligible (of zero weight)") and dropped.
    """
    if not weights:
        raise CriteriaError("empty weight mapping")
    total = 0.0
    for name, w in weights.items():
        if name not in CRITERIA:
            raise CriteriaError(f"unknown criterion {name!r}")
        if w < 0:
            raise CriteriaError(f"negative weight for {name!r}: {w}")
        total += w
    if total <= 0:
        raise CriteriaError("all weights are zero")
    normalized = {name: w / total for name, w in weights.items() if w > 0}
    # Subnormal inputs can underflow to exactly 0 after division; a
    # zero weight is a dropped weight either way.
    return {name: w for name, w in normalized.items() if w > 0}


def evaluate_snapshot(snapshot: _Snapshot, weights: Mapping[str, float]) -> float:
    """Weighted utility of a snapshot (weights must be normalized)."""
    return sum(w * criterion_utility(name, snapshot) for name, w in weights.items())


def _uniform(names) -> Dict[str, float]:
    return {n: 1.0 for n in names}


#: Named weight profiles.  "same_priority" is the mode evaluated in the
#: paper's Figure 6 (all criteria equally weighted).
WEIGHT_PROFILES: Dict[str, Dict[str, float]] = {
    "same_priority": _uniform(CRITERIA),
    "message_oriented": _uniform(
        (
            "messages_ok_session",
            "messages_ok_total",
            "messages_ok_last_k",
            "outbox_now",
            "outbox_avg",
            "inbox_now",
            "inbox_avg",
        )
    ),
    "task_oriented": _uniform(
        (
            "tasks_ok_session",
            "tasks_ok_total",
            "tasks_accepted_session",
            "tasks_accepted_total",
        )
    ),
    "transfer_oriented": _uniform(
        (
            "files_sent_session",
            "files_sent_total",
            "transfers_cancelled_session",
            "transfers_cancelled_total",
            "pending_transfers",
            "messages_ok_last_k",
        )
    ),
}
