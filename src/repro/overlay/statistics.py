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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counters", "PeerStats", "PerformanceHistory", "SNAPSHOT_KEYS",
    "StalenessClock",
]

#: The keys of every :meth:`PeerStats.snapshot` (and so of every
#: ``StatReport``): one shared set, so a broker stamps a report's
#: freshness once (see :meth:`StalenessClock.stamp`).
SNAPSHOT_KEYS = frozenset((
    "pct_messages_ok_session", "pct_messages_ok_total",
    "pct_messages_ok_last_k", "outbox_len_now", "outbox_len_avg",
    "inbox_len_now", "inbox_len_avg", "pct_tasks_ok_session",
    "pct_tasks_ok_total", "pct_tasks_accepted_session",
    "pct_tasks_accepted_total", "pct_files_sent_session",
    "pct_files_sent_total", "pct_transfers_cancelled_session",
    "pct_transfers_cancelled_total", "pending_transfers", "pending_tasks",
    "sessions_started",
))

_INF = float("inf")
#: "No last-k share cached": NaN compares false with every cutoff.
_NO_CUTOFF = float("nan")


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

    :meth:`snapshot` runs on every stat report, so it keeps two
    caches.  The ten counter shares are recomputed only after a
    ``record_*`` call or a session start or end: the counters change
    nowhere else.  The last-``k`` message share is reused until a log
    entry lands or the window edge passes the oldest entry it counted
    (see :meth:`_message_share_last`).
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
        #: A list, pruned by slice: a deque holding one entry would
        #: still cost a full 64-slot block per peer.
        self._log: List[tuple[float, str, bool]] = []
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
        #: Counter shares for :meth:`snapshot` (None = recompute).
        self._shares: Optional[tuple] = None
        #: Last-k message share cache: the cutoff it was counted at,
        #: the oldest entry time it counted, and the share.
        self._lk_cutoff = _NO_CUTOFF
        self._lk_oldest = _INF
        self._lk_share = 1.0

    # -- session lifecycle -----------------------------------------------------

    def start_session(self) -> None:
        """Open a new session window (rolls nothing; totals accumulate live)."""
        if self.session_active:
            raise ValueError("session already active")
        self.session = Counters()
        self.session_active = True
        self.sessions_started += 1
        self._shares = None

    def end_session(self) -> None:
        """Close the current session window (archiving it)."""
        if not self.session_active:
            raise ValueError("no active session")
        self.session_active = False
        self.closed_sessions.append(self.session)
        self._shares = None

    # -- recording ---------------------------------------------------------------

    def _logged(self, now: float, kind: str, ok: bool) -> None:
        self._shares = None
        self._lk_cutoff = _NO_CUTOFF
        log = self._log
        log.append((now, kind, ok))
        cutoff = now - self.LOG_RETENTION_S
        if log[0][0] < cutoff:
            # Drop the head entries older than the retention edge, as
            # a deque popping from the left until the first one inside.
            n = len(log)
            i = 1
            while i < n and log[i][0] < cutoff:
                i += 1
            del log[:i]

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
        self._shares = None
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

    # -- last-k-hours shares ------------------------------------------------------------

    def _scan(self, cutoff: float) -> tuple[float, float]:
        """(message share, oldest counted time) over the log tail from
        the last entry back to the first one older than ``cutoff``."""
        n = ok = 0
        oldest = _INF
        for t, k, o in reversed(self._log):
            if t < cutoff:
                break
            if t < oldest:
                oldest = t
            if k == "message":
                n += 1
                ok += int(o)
        return _share(ok, n), oldest

    def _message_share_last(self, now: float, hours: float) -> float:
        """Success share of the messages logged in the trailing
        ``hours`` (unobserved -> 1.0), cached.

        With the log unchanged, a scan at a cutoff at or after the
        cached one stops at the same entry unless the oldest entry it
        counted is now older than the cutoff, so the cached share
        holds.  A cutoff that moved backwards scans again.
        """
        cutoff = now - hours * 3600.0
        if self._lk_cutoff <= cutoff and not self._lk_oldest < cutoff:
            return self._lk_share
        share, self._lk_oldest = self._scan(cutoff)
        self._lk_cutoff = cutoff
        self._lk_share = share
        return share

    # -- snapshots --------------------------------------------------------------------------

    def snapshot(self, now: float, last_k_hours: float = 1.0) -> Dict[str, float]:
        """Flat name->value view of every §2.2 criterion input.

        This is what peers ship to the broker in ``StatReport``
        messages and what :mod:`repro.selection.criteria` consumes.
        Its keys are :data:`SNAPSHOT_KEYS`.
        """
        if last_k_hours <= 0:
            raise ValueError(f"hours must be > 0, got {last_k_hours}")
        shares = self._shares
        if shares is None:
            session = self.session
            total = self.total
            shares = self._shares = (
                session.pct_messages_ok, total.pct_messages_ok,
                session.pct_tasks_ok, total.pct_tasks_ok,
                session.pct_tasks_accepted, total.pct_tasks_accepted,
                session.pct_files_sent, total.pct_files_sent,
                session.pct_transfers_cancelled, total.pct_transfers_cancelled,
            )
        (msgs_s, msgs_t, tasks_s, tasks_t, accepted_s, accepted_t,
         files_s, files_t, cancelled_s, cancelled_t) = shares
        outbox_n = self._outbox_samples
        inbox_n = self._inbox_samples
        return {
            "pct_messages_ok_session": msgs_s,
            "pct_messages_ok_total": msgs_t,
            "pct_messages_ok_last_k": self._message_share_last(now, last_k_hours),
            "outbox_len_now": float(self.outbox_len_now),
            "outbox_len_avg": self._outbox_sum / outbox_n if outbox_n > 0 else 0.0,
            "inbox_len_now": float(self.inbox_len_now),
            "inbox_len_avg": self._inbox_sum / inbox_n if inbox_n > 0 else 0.0,
            "pct_tasks_ok_session": tasks_s,
            "pct_tasks_ok_total": tasks_t,
            "pct_tasks_accepted_session": accepted_s,
            "pct_tasks_accepted_total": accepted_t,
            "pct_files_sent_session": files_s,
            "pct_files_sent_total": files_t,
            "pct_transfers_cancelled_session": cancelled_s,
            "pct_transfers_cancelled_total": cancelled_t,
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
        self.window = window
        #: Raw (time, value) observations, bounded FIFOs of ``window``
        #: entries.  Each is an empty tuple until its first observation:
        #: most peers' histories never record some (or any) kind.
        self.transfer_obs: Sequence[tuple[float, float]] = ()
        self.latency_obs: Sequence[tuple[float, float]] = ()
        self.exec_obs: Sequence[tuple[float, float]] = ()
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
        if not self.transfer_obs:
            self.transfer_obs = deque(maxlen=self.window)
        self.transfer_obs.append((now, bps))
        self.last_observed_at = now

    def record_execution(self, now: float, ops: float, seconds: float) -> None:
        """One completed task: observed execution speed."""
        if seconds <= 0 or ops <= 0:
            raise ValueError("execution observation needs positive ops and seconds")
        rate = ops / seconds
        self.exec_ops_per_s.observe(rate)
        if not self.exec_obs:
            self.exec_obs = deque(maxlen=self.window)
        self.exec_obs.append((now, rate))
        self.last_observed_at = now

    def record_petition_latency(self, now: float, seconds: float) -> None:
        """One observed petition round: receiver-side delivery latency."""
        if seconds < 0:
            raise ValueError("latency must be >= 0")
        self.petition_latency_s.observe(seconds)
        if not self.latency_obs:
            self.latency_obs = deque(maxlen=self.window)
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


class StalenessClock:
    """Last-refresh times for named statistic inputs (sim seconds).

    The broker stamps snapshot keys as keepalives, stat reports and
    replication state syncs land; degraded-mode selection compares
    :meth:`age` against its staleness budget to decide which criteria
    are still trustworthy.  Refresh times are merged monotonically, so
    absorbing an old state sync never rejuvenates a key.

    A beacon refreshes the same keys every time, so :meth:`stamp`
    keeps one time per key *set* (a frozenset, whose hash is cached);
    :meth:`note_many` keeps one per key.  A key's
    refresh time is the latest of its own time and the stamps of
    every set holding it.
    """

    __slots__ = ("_stamps", "_seen")

    def __init__(self) -> None:
        self._stamps: Dict[frozenset, float] = {}
        self._seen: Dict[str, float] = {}

    def stamp(self, keys: frozenset, now: float) -> None:
        """Record that every key of ``keys`` was refreshed at ``now``."""
        prior = self._stamps.get(keys)
        if prior is None or now > prior:
            self._stamps[keys] = now

    def note_many(self, keys, now: float) -> None:
        """Record that every key of ``keys`` was refreshed at ``now``."""
        seen = self._seen
        for key in keys:
            prior = seen.get(key)
            if prior is None or now > prior:
                seen[key] = now

    def age(self, key: str, now: float) -> float:
        """Seconds since ``key`` was refreshed (inf if never)."""
        t = self._seen.get(key)
        for keys, stamped in self._stamps.items():
            if key in keys and (t is None or stamped > t):
                t = stamped
        if t is None:
            return _INF
        return max(0.0, now - t)
