"""Resource statistics — the overlay's per-peer accounting interface.

Section 2.2 of the paper lists the criteria the *data evaluator* model
consumes: percentages of successfully sent messages (current session /
all sessions / last *k* hours), outbox & inbox queue occupancies (now /
average), task acceptance and execution shares, file-send and
cancellation shares, and pending transfers.  This module implements the
accounting that produces every one of those quantities:

* :class:`Counters` — one accounting window (a session, or the
  all-sessions total).
* :class:`PeerStats` — the full per-peer record: current session,
  lifetime totals, a timestamped event log for last-*k*-hours queries,
  queue-occupancy tracking, and session lifecycle.
* :class:`PerformanceHistory` — observed *rates* (transfer bandwidth,
  execution speed, petition latency) kept as EWMAs plus raw timestamped
  observations; the scheduling-based model's ready-time estimates and
  the user's-preference model's "experience" both read from here.

Accounting is event-sourced: services call ``record_*`` as things
happen; all percentages are derived on demand.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

__all__ = ["Counters", "PeerStats", "PerformanceHistory", "StalenessClock"]


def _share(num: float, den: float, default: float = 1.0) -> float:
    """``num/den`` with a configurable value for an empty denominator.

    Success shares default to 1.0 (an unobserved peer is not penalized
    — the paper's broker likewise starts peers with a clean history);
    failure shares pass ``default=0.0``.
    """
    if den <= 0:
        return default
    return num / den


@dataclass(slots=True)
class Counters:
    """Event counts over one accounting window."""

    messages_sent: int = 0
    messages_ok: int = 0
    tasks_offered: int = 0
    tasks_accepted: int = 0
    tasks_executed: int = 0
    tasks_ok: int = 0
    files_attempted: int = 0
    files_sent_ok: int = 0
    transfers_cancelled: int = 0

    def merge_into(self, other: "Counters") -> None:
        """Add this window's counts into ``other`` (for session roll-up)."""
        other.messages_sent += self.messages_sent
        other.messages_ok += self.messages_ok
        other.tasks_offered += self.tasks_offered
        other.tasks_accepted += self.tasks_accepted
        other.tasks_executed += self.tasks_executed
        other.tasks_ok += self.tasks_ok
        other.files_attempted += self.files_attempted
        other.files_sent_ok += self.files_sent_ok
        other.transfers_cancelled += self.transfers_cancelled

    # -- derived shares -----------------------------------------------------

    # Each share spells out ``_share``'s rule inline: the broker reads
    # all five for both windows on every stat-report snapshot.

    @property
    def pct_messages_ok(self) -> float:
        """Share of successfully sent messages in this window."""
        den = self.messages_sent
        return self.messages_ok / den if den > 0 else 1.0

    @property
    def pct_tasks_ok(self) -> float:
        """Share of successfully executed tasks."""
        den = self.tasks_executed
        return self.tasks_ok / den if den > 0 else 1.0

    @property
    def pct_tasks_accepted(self) -> float:
        """Share of offered tasks the peer accepted."""
        den = self.tasks_offered
        return self.tasks_accepted / den if den > 0 else 1.0

    @property
    def pct_files_sent(self) -> float:
        """Share of attempted file sends that completed."""
        den = self.files_attempted
        return self.files_sent_ok / den if den > 0 else 1.0

    @property
    def pct_transfers_cancelled(self) -> float:
        """Share of attempted transfers that were cancelled."""
        den = self.files_attempted
        return self.transfers_cancelled / den if den > 0 else 0.0


class PeerStats:
    """Full statistics record for one peer.

    Holds the *current session* window, the *all sessions* total, a
    timestamped event log (for last-``k``-hours percentages) and queue
    occupancy tracking.  Thread-free: the simulator is single-threaded.
    """

    #: Event-log retention (seconds); events older than this are pruned.
    LOG_RETENTION_S = 24.0 * 3600.0

    def __init__(self) -> None:
        self.session = Counters()
        self.total = Counters()
        self.sessions_started = 0
        self.session_active = False
        #: Archive of closed session windows, oldest first — the
        #: "all sessions" history the §2.2 criteria refer to, kept
        #: per-window for inspection and future criteria.
        self.closed_sessions: list[Counters] = []
        #: (time, kind, ok) with kind in {"message", "task", "file"}.
        self._log: Deque[tuple[float, str, bool]] = deque()
        # Queue occupancy: latest sample + running sample means.
        self.outbox_len_now = 0
        self.inbox_len_now = 0
        self._outbox_samples = 0
        self._outbox_sum = 0.0
        self._inbox_samples = 0
        self._inbox_sum = 0.0
        #: Transfers currently in progress toward/from this peer.
        self.pending_transfers = 0
        #: Tasks queued or running on this peer.
        self.pending_tasks = 0

    # -- session lifecycle -----------------------------------------------------

    def start_session(self) -> None:
        """Open a new session window (rolls nothing; totals accumulate live)."""
        if self.session_active:
            raise ValueError("session already active")
        self.session = Counters()
        self.session_active = True
        self.sessions_started += 1

    def end_session(self) -> None:
        """Close the current session window (archiving it)."""
        if not self.session_active:
            raise ValueError("no active session")
        self.session_active = False
        self.closed_sessions.append(self.session)

    # -- recording ---------------------------------------------------------------

    def _logged(self, now: float, kind: str, ok: bool) -> None:
        self._log.append((now, kind, ok))
        cutoff = now - self.LOG_RETENTION_S
        while self._log and self._log[0][0] < cutoff:
            self._log.popleft()

    def record_message(self, now: float, ok: bool) -> None:
        """One message send attempt finished (ok = acknowledged)."""
        self.session.messages_sent += 1
        self.total.messages_sent += 1
        if ok:
            self.session.messages_ok += 1
            self.total.messages_ok += 1
        self._logged(now, "message", ok)

    def record_task_offered(self, accepted: bool) -> None:
        """A task was offered; ``accepted`` if the peer took it."""
        self.session.tasks_offered += 1
        self.total.tasks_offered += 1
        if accepted:
            self.session.tasks_accepted += 1
            self.total.tasks_accepted += 1

    def record_task_executed(self, now: float, ok: bool) -> None:
        """A task finished executing (ok = produced a result)."""
        self.session.tasks_executed += 1
        self.total.tasks_executed += 1
        if ok:
            self.session.tasks_ok += 1
            self.total.tasks_ok += 1
        self._logged(now, "task", ok)

    def record_file_attempt(self, now: float, ok: bool, cancelled: bool = False) -> None:
        """A file send attempt ended (ok / failed / cancelled)."""
        self.session.files_attempted += 1
        self.total.files_attempted += 1
        if ok:
            self.session.files_sent_ok += 1
            self.total.files_sent_ok += 1
        if cancelled:
            self.session.transfers_cancelled += 1
            self.total.transfers_cancelled += 1
        self._logged(now, "file", ok)

    def sample_queues(self, outbox_len: int, inbox_len: int) -> None:
        """Record a queue-occupancy observation."""
        if outbox_len < 0 or inbox_len < 0:
            raise ValueError("queue lengths must be >= 0")
        self.outbox_len_now = outbox_len
        self.inbox_len_now = inbox_len
        self._outbox_samples += 1
        self._outbox_sum += outbox_len
        self._inbox_samples += 1
        self._inbox_sum += inbox_len

    # -- derived queue stats --------------------------------------------------------

    @property
    def outbox_len_avg(self) -> float:
        """Sample mean of outbox occupancy (0.0 before first sample)."""
        return _share(self._outbox_sum, self._outbox_samples, default=0.0)

    @property
    def inbox_len_avg(self) -> float:
        """Sample mean of inbox occupancy (0.0 before first sample)."""
        return _share(self._inbox_sum, self._inbox_samples, default=0.0)

    # -- last-k-hours shares ------------------------------------------------------------

    def pct_ok_last(self, kind: str, now: float, hours: float) -> float:
        """Success share of ``kind`` events in the trailing window.

        ``kind`` in {"message", "task", "file"}; unobserved -> 1.0.
        """
        if kind not in ("message", "task", "file"):
            raise ValueError(f"unknown event kind {kind!r}")
        if hours <= 0:
            raise ValueError(f"hours must be > 0, got {hours}")
        cutoff = now - hours * 3600.0
        n = ok = 0
        for t, k, o in reversed(self._log):
            if t < cutoff:
                break
            if k == kind:
                n += 1
                ok += int(o)
        return _share(ok, n)

    # -- snapshots --------------------------------------------------------------------------

    def snapshot(self, now: float, last_k_hours: float = 1.0) -> Dict[str, float]:
        """Flat name->value view of every §2.2 criterion input.

        This is what peers ship to the broker in ``StatReport``
        messages and what :mod:`repro.selection.criteria` consumes.
        """
        return {
            "pct_messages_ok_session": self.session.pct_messages_ok,
            "pct_messages_ok_total": self.total.pct_messages_ok,
            "pct_messages_ok_last_k": self.pct_ok_last("message", now, last_k_hours),
            "outbox_len_now": float(self.outbox_len_now),
            "outbox_len_avg": self.outbox_len_avg,
            "inbox_len_now": float(self.inbox_len_now),
            "inbox_len_avg": self.inbox_len_avg,
            "pct_tasks_ok_session": self.session.pct_tasks_ok,
            "pct_tasks_ok_total": self.total.pct_tasks_ok,
            "pct_tasks_accepted_session": self.session.pct_tasks_accepted,
            "pct_tasks_accepted_total": self.total.pct_tasks_accepted,
            "pct_files_sent_session": self.session.pct_files_sent,
            "pct_files_sent_total": self.total.pct_files_sent,
            "pct_transfers_cancelled_session": self.session.pct_transfers_cancelled,
            "pct_transfers_cancelled_total": self.total.pct_transfers_cancelled,
            "pending_transfers": float(self.pending_transfers),
            "pending_tasks": float(self.pending_tasks),
            "sessions_started": float(self.sessions_started),
        }


@dataclass
class _Ewma:
    """Exponentially weighted moving average with observation count."""

    alpha: float = 0.3
    value: Optional[float] = None
    count: int = 0

    def observe(self, x: float) -> None:
        self.count += 1
        if self.value is None:
            self.value = x
        else:
            self.value = (1.0 - self.alpha) * self.value + self.alpha * x


class PerformanceHistory:
    """Observed performance rates for one peer.

    The broker keeps one per registered peer; it feeds

    * the **scheduling-based** model's ready-time estimates
      (``transfer_bps``, ``exec_ops_per_s``), and
    * the **user's-preference** model's experience window
      (timestamped petition latencies / transfer rates).
    """

    def __init__(self, alpha: float = 0.3, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.transfer_bps = _Ewma(alpha)
        self.exec_ops_per_s = _Ewma(alpha)
        self.petition_latency_s = _Ewma(alpha)
        #: Raw (time, value) observations, bounded FIFO.
        self.transfer_obs: Deque[tuple[float, float]] = deque(maxlen=window)
        self.latency_obs: Deque[tuple[float, float]] = deque(maxlen=window)
        self.exec_obs: Deque[tuple[float, float]] = deque(maxlen=window)
        #: Time of the most recent observation of any kind (None until
        #: the first one) — degraded-mode selection compares
        #: :meth:`age` against its staleness budget.
        self.last_observed_at: Optional[float] = None

    def record_transfer(self, now: float, bits: float, seconds: float) -> None:
        """One completed transfer: observed goodput."""
        if seconds <= 0 or bits <= 0:
            raise ValueError("transfer observation needs positive bits and seconds")
        bps = bits / seconds
        self.transfer_bps.observe(bps)
        self.transfer_obs.append((now, bps))
        self.last_observed_at = now

    def record_execution(self, now: float, ops: float, seconds: float) -> None:
        """One completed task: observed execution speed."""
        if seconds <= 0 or ops <= 0:
            raise ValueError("execution observation needs positive ops and seconds")
        rate = ops / seconds
        self.exec_ops_per_s.observe(rate)
        self.exec_obs.append((now, rate))
        self.last_observed_at = now

    def record_petition_latency(self, now: float, seconds: float) -> None:
        """One observed petition round: receiver-side delivery latency."""
        if seconds < 0:
            raise ValueError("latency must be >= 0")
        self.petition_latency_s.observe(seconds)
        self.latency_obs.append((now, seconds))
        self.last_observed_at = now

    def age(self, now: float) -> float:
        """Seconds since the last observation (inf if never observed)."""
        if self.last_observed_at is None:
            return float("inf")
        return max(0.0, now - self.last_observed_at)

    # -- queries ---------------------------------------------------------------

    def estimated_transfer_bps(self, fallback: float) -> float:
        """Best transfer-rate estimate (EWMA, else ``fallback``)."""
        v = self.transfer_bps.value
        return fallback if v is None else v

    def estimated_exec_rate(self, fallback: float) -> float:
        """Best execution-rate estimate (EWMA, else ``fallback``)."""
        v = self.exec_ops_per_s.value
        return fallback if v is None else v

    def estimated_petition_latency(self, fallback: float = 0.0) -> float:
        """Best petition-latency estimate (EWMA, else ``fallback``)."""
        v = self.petition_latency_s.value
        return fallback if v is None else v

    def latencies_in_window(self, t0: float, t1: float) -> list[float]:
        """Raw petition latencies observed in ``[t0, t1]`` — the
        user's-preference model reads its "experience" from here."""
        if t0 > t1:
            raise ValueError(f"empty window [{t0}, {t1}]")
        return [v for (t, v) in self.latency_obs if t0 <= t <= t1]

    def transfer_rates_in_window(self, t0: float, t1: float) -> list[float]:
        """Raw transfer rates observed in ``[t0, t1]``."""
        if t0 > t1:
            raise ValueError(f"empty window [{t0}, {t1}]")
        return [v for (t, v) in self.transfer_obs if t0 <= t <= t1]


class StalenessClock:
    """Last-refresh times for named statistic inputs (sim seconds).

    The broker stamps each snapshot key as keepalives, stat reports and
    replication state syncs land; degraded-mode selection compares
    :meth:`age` against its staleness budget to decide which criteria
    are still trustworthy.  Refresh times are merged monotonically, so
    absorbing an old state sync never rejuvenates a key.
    """

    def __init__(self) -> None:
        self._seen: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._seen)

    def note(self, key: str, now: float) -> None:
        """Record that ``key``'s value was refreshed at ``now``."""
        prior = self._seen.get(key)
        if prior is None or now > prior:
            self._seen[key] = now

    def note_many(self, keys, now: float) -> None:
        """Refresh several keys at once (:meth:`note`, inlined)."""
        seen = self._seen
        for key in keys:
            prior = seen.get(key)
            if prior is None or now > prior:
                seen[key] = now

    def age(self, key: str, now: float) -> float:
        """Seconds since ``key`` was refreshed (inf if never)."""
        t = self._seen.get(key)
        if t is None:
            return float("inf")
        return max(0.0, now - t)
