"""Tests for the §2.2 statistics accounting."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.statistics import (
    SNAPSHOT_KEYS,
    Counters,
    PeerStats,
    PerformanceHistory,
    StalenessClock,
    _share,
)

from tests.conftest import freshness_times


class TestCounters:
    def test_shares_default_optimistic(self):
        c = Counters()
        assert c.pct_messages_ok == 1.0
        assert c.pct_tasks_ok == 1.0
        assert c.pct_transfers_cancelled == 0.0

    def test_shares_computed(self):
        c = Counters(messages_sent=4, messages_ok=3)
        assert c.pct_messages_ok == pytest.approx(0.75)


class TestSessionLifecycle:
    def test_start_resets_session_window(self):
        s = PeerStats()
        s.start_session()
        s.record_message(1.0, ok=True)
        s.end_session()
        s.start_session()
        assert s.session.messages_sent == 0
        assert s.total.messages_sent == 1
        assert s.sessions_started == 2

    def test_double_start_rejected(self):
        s = PeerStats()
        s.start_session()
        with pytest.raises(ValueError):
            s.start_session()

    def test_end_without_start_rejected(self):
        with pytest.raises(ValueError):
            PeerStats().end_session()


class TestRecording:
    def test_message_shares(self):
        s = PeerStats()
        s.record_message(1.0, ok=True)
        s.record_message(2.0, ok=False)
        assert s.session.pct_messages_ok == pytest.approx(0.5)
        assert s.total.pct_messages_ok == pytest.approx(0.5)

    def test_task_offer_and_execution(self):
        s = PeerStats()
        s.record_task_offered(accepted=True)
        s.record_task_offered(accepted=False)
        s.record_task_executed(1.0, ok=True)
        assert s.session.pct_tasks_accepted == pytest.approx(0.5)
        assert s.session.pct_tasks_ok == 1.0

    def test_file_attempts_and_cancellations(self):
        s = PeerStats()
        s.record_file_attempt(1.0, ok=True)
        s.record_file_attempt(2.0, ok=False, cancelled=True)
        assert s.session.pct_files_sent == pytest.approx(0.5)
        assert s.session.pct_transfers_cancelled == pytest.approx(0.5)

    def test_queue_sampling(self):
        s = PeerStats()
        s.sample_queues(2, 4)
        s.sample_queues(4, 0)
        assert s.outbox_len_now == 4
        snap = s.snapshot(0.0)
        assert snap["outbox_len_avg"] == pytest.approx(3.0)
        assert snap["inbox_len_avg"] == pytest.approx(2.0)

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            PeerStats().sample_queues(-1, 0)


class TestLastKHours:
    def test_windowed_share(self):
        s = PeerStats()
        s.record_message(0.0, ok=False)          # old
        s.record_message(5000.0, ok=True)        # recent
        # At t=5400 a 1-hour window sees only the recent success.
        assert s.snapshot(5400.0, 1.0)["pct_messages_ok_last_k"] == 1.0
        # A 2-hour window sees both.
        assert s.snapshot(5400.0, 2.0)["pct_messages_ok_last_k"] == pytest.approx(0.5)

    def test_empty_window_optimistic(self):
        s = PeerStats()
        s.record_file_attempt(50.0, ok=False)
        assert s.snapshot(100.0, 1.0)["pct_messages_ok_last_k"] == 1.0

    def test_log_pruned_beyond_retention(self):
        s = PeerStats()
        s.record_message(0.0, ok=True)
        s.record_message(s.LOG_RETENTION_S + 10.0, ok=False)
        assert len(s._log) == 1


class TestSnapshot:
    def test_snapshot_has_all_criterion_inputs(self):
        s = PeerStats()
        snap = s.snapshot(now=0.0)
        expected = {
            "pct_messages_ok_session",
            "pct_messages_ok_total",
            "pct_messages_ok_last_k",
            "outbox_len_now",
            "outbox_len_avg",
            "inbox_len_now",
            "inbox_len_avg",
            "pct_tasks_ok_session",
            "pct_tasks_ok_total",
            "pct_tasks_accepted_session",
            "pct_tasks_accepted_total",
            "pct_files_sent_session",
            "pct_files_sent_total",
            "pct_transfers_cancelled_session",
            "pct_transfers_cancelled_total",
            "pending_transfers",
            "pending_tasks",
            "sessions_started",
        }
        assert expected <= set(snap)

    def test_snapshot_values_trackable(self):
        s = PeerStats()
        s.pending_transfers = 3
        snap = s.snapshot(now=0.0)
        assert snap["pending_transfers"] == 3.0

    @given(
        session=st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=9),
        total=st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=9),
        queues=st.lists(st.integers(min_value=0, max_value=500), max_size=20),
        pending=st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 9)),
    )
    @settings(max_examples=200, deadline=None)
    def test_snapshot_shares_follow_the_share_rule(self, session, total, queues, pending):
        """The ``Counters`` shares spell ``_share`` out inline; the
        snapshot must equal the rule bit for bit, empty denominators
        included."""
        s = PeerStats()
        s.session = Counters(*session)
        s.total = Counters(*total)
        for i, n in enumerate(queues):
            s.sample_queues(n, (n * 7 + i) % 31)
        s.pending_transfers, s.pending_tasks, s.sessions_started = pending
        snap = s.snapshot(now=0.0)
        for window, c in (("session", s.session), ("total", s.total)):
            assert snap[f"pct_messages_ok_{window}"] == _share(c.messages_ok, c.messages_sent)
            assert snap[f"pct_tasks_ok_{window}"] == _share(c.tasks_ok, c.tasks_executed)
            assert snap[f"pct_tasks_accepted_{window}"] == _share(c.tasks_accepted, c.tasks_offered)
            assert snap[f"pct_files_sent_{window}"] == _share(c.files_sent_ok, c.files_attempted)
            assert snap[f"pct_transfers_cancelled_{window}"] == _share(
                c.transfers_cancelled, c.files_attempted, default=0.0
            )
        assert snap["outbox_len_avg"] == _share(s._outbox_sum, s._outbox_samples, default=0.0)
        assert snap["inbox_len_avg"] == _share(s._inbox_sum, s._inbox_samples, default=0.0)
        assert snap["pct_messages_ok_last_k"] == _messages_ok_since(s._log, -3600.0)
        assert snap["pending_transfers"] == float(pending[0])
        assert snap["pending_tasks"] == float(pending[1])
        assert snap["sessions_started"] == float(pending[2])
        assert len(snap) == 18


class TestStatisticsProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_message_share_matches_fraction(self, oks):
        s = PeerStats()
        for i, ok in enumerate(oks):
            s.record_message(float(i), ok=ok)
        assert s.total.pct_messages_ok == pytest.approx(sum(oks) / len(oks))

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_queue_avg_is_sample_mean(self, lens):
        s = PeerStats()
        for n in lens:
            s.sample_queues(n, 0)
        assert s.snapshot(0.0)["outbox_len_avg"] == pytest.approx(sum(lens) / len(lens))

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_session_never_exceeds_total(self, oks):
        s = PeerStats()
        s.start_session()
        for i, ok in enumerate(oks):
            s.record_message(float(i), ok=ok)
        assert s.session.messages_sent <= s.total.messages_sent
        assert s.session.messages_ok <= s.total.messages_ok


def _messages_ok_since(log, cutoff: float) -> float:
    """Reference last-k share: the messages logged at or after
    ``cutoff``, scanning back from the newest entry."""
    n = ok = 0
    for t, k, o in reversed(log):
        if t < cutoff:
            break
        if k == "message":
            n += 1
            ok += int(o)
    return _share(ok, n)


class _DequeLogStats(PeerStats):
    """Reference: the event log as a deque popped from the left, and
    every share and snapshot computed from scratch on each call (no
    cache of the class under test is inherited)."""

    def __init__(self) -> None:
        super().__init__()
        self._log = deque()

    def _logged(self, now: float, kind: str, ok: bool) -> None:
        self._log.append((now, kind, ok))
        cutoff = now - self.LOG_RETENTION_S
        while self._log and self._log[0][0] < cutoff:
            self._log.popleft()

    def snapshot(self, now: float, last_k_hours: float = 1.0):
        session, total = self.session, self.total
        return {
            "pct_messages_ok_session": session.pct_messages_ok,
            "pct_messages_ok_total": total.pct_messages_ok,
            "pct_messages_ok_last_k": _messages_ok_since(
                self._log, now - last_k_hours * 3600.0
            ),
            "outbox_len_now": float(self.outbox_len_now),
            "outbox_len_avg": _share(self._outbox_sum, self._outbox_samples, 0.0),
            "inbox_len_now": float(self.inbox_len_now),
            "inbox_len_avg": _share(self._inbox_sum, self._inbox_samples, 0.0),
            "pct_tasks_ok_session": session.pct_tasks_ok,
            "pct_tasks_ok_total": total.pct_tasks_ok,
            "pct_tasks_accepted_session": session.pct_tasks_accepted,
            "pct_tasks_accepted_total": total.pct_tasks_accepted,
            "pct_files_sent_session": session.pct_files_sent,
            "pct_files_sent_total": total.pct_files_sent,
            "pct_transfers_cancelled_session": session.pct_transfers_cancelled,
            "pct_transfers_cancelled_total": total.pct_transfers_cancelled,
            "pending_transfers": float(self.pending_transfers),
            "pending_tasks": float(self.pending_tasks),
            "sessions_started": float(self.sessions_started),
        }


_RECORDS = ("message", "task", "file")
_record_steps = st.lists(
    st.tuples(
        st.sampled_from(_RECORDS),
        # Steps of up to 10 h cross the 24 h retention edge within a
        # few records; a few step back in time, and whole half hours
        # land entries exactly on the edge.
        st.one_of(
            st.floats(min_value=-600.0, max_value=10 * 3600.0),
            st.integers(min_value=-1, max_value=20).map(lambda k: k * 1800.0),
        ),
        st.booleans(),
        st.floats(min_value=0.0, max_value=5 * 3600.0),
        st.floats(min_value=0.01, max_value=30.0),
    ),
    max_size=60,
)


_interleaved_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from(_RECORDS),
            st.one_of(
                st.floats(min_value=-600.0, max_value=3 * 3600.0),
                st.integers(min_value=-1, max_value=6).map(lambda k: k * 900.0),
            ),
            st.booleans(),
        ),
        st.tuples(st.just("offer"), st.booleans()),
        st.tuples(st.just("queues"), st.integers(0, 40), st.integers(0, 40)),
        st.tuples(st.just("pending"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("session")),
        # Query times step back as well as forward, and whole quarter
        # hours put the window edge exactly on logged entries.
        st.tuples(
            st.just("query"),
            st.one_of(
                st.floats(min_value=-2 * 3600.0, max_value=3 * 3600.0),
                st.integers(min_value=-8, max_value=12).map(lambda k: k * 900.0),
            ),
            st.sampled_from((0.25, 0.5, 1.0, 2.0)),
        ),
    ),
    max_size=80,
)


class TestEventLogAgainstDeque:
    @given(_record_steps)
    @settings(max_examples=200, deadline=None)
    def test_shares_and_snapshot_match_bit_for_bit(self, steps):
        stats, ref = PeerStats(), _DequeLogStats()
        now = 0.0
        for kind, dt, ok, lag, hours in steps:
            now += dt
            for s in (stats, ref):
                if kind == "message":
                    s.record_message(now, ok)
                elif kind == "task":
                    s.record_task_executed(now, ok)
                else:
                    s.record_file_attempt(now, ok, cancelled=not ok)
            assert list(stats._log) == list(ref._log)
            query = now + lag
            assert stats.snapshot(query, hours) == ref.snapshot(query, hours)

    @given(_interleaved_ops)
    @settings(max_examples=300, deadline=None)
    def test_cached_snapshot_matches_from_scratch(self, ops):
        """Snapshots between every kind of state change, at query
        times that step back, equal a from-scratch computation."""
        stats, ref = PeerStats(), _DequeLogStats()
        now = 0.0
        for op, *args in ops:
            if op == "record":
                kind, dt, ok = args
                now += dt
            for s in (stats, ref):
                if op == "record":
                    if kind == "message":
                        s.record_message(now, ok)
                    elif kind == "task":
                        s.record_task_executed(now, ok)
                    else:
                        s.record_file_attempt(now, ok, cancelled=not ok)
                elif op == "offer":
                    s.record_task_offered(args[0])
                elif op == "queues":
                    s.sample_queues(*args)
                elif op == "pending":
                    s.pending_transfers, s.pending_tasks = args
                elif op == "session":
                    if s.session_active:
                        s.end_session()
                    else:
                        s.start_session()
            if op == "query":
                lag, hours = args
                query = now + lag
                assert stats.snapshot(query, hours) == ref.snapshot(query, hours)
        assert list(stats._log) == list(ref._log)
        assert stats.snapshot(now) == ref.snapshot(now)

    def test_prune_keeps_the_edge_entry(self):
        s = PeerStats()
        for t in (0.0, 10.0, 20.0):
            s.record_message(t, ok=True)
        s.record_message(s.LOG_RETENTION_S + 10.0, ok=False)
        # t=0 is older than the edge, t=10 sits on it and stays.
        assert [t for t, _k, _o in s._log] == [10.0, 20.0, s.LOG_RETENTION_S + 10.0]


class TestPerformanceHistory:
    def test_transfer_ewma(self):
        h = PerformanceHistory(alpha=0.5)
        h.record_transfer(0.0, 100.0, 1.0)     # 100 bps
        h.record_transfer(1.0, 300.0, 1.0)     # 300 bps
        assert h.estimated_transfer_bps(0.0) == pytest.approx(200.0)

    def test_fallbacks_when_empty(self):
        h = PerformanceHistory()
        assert h.estimated_transfer_bps(42.0) == 42.0
        assert h.estimated_exec_rate(7.0) == 7.0
        assert h.estimated_petition_latency(0.5) == 0.5

    def test_latency_window_query(self):
        h = PerformanceHistory()
        h.record_petition_latency(10.0, 0.5)
        h.record_petition_latency(20.0, 1.5)
        h.record_petition_latency(30.0, 2.5)
        assert h.latencies_in_window(15.0, 25.0) == [1.5]
        assert h.latencies_in_window(0.0, 100.0) == [0.5, 1.5, 2.5]

    def test_windows_empty_until_first_observation(self):
        h = PerformanceHistory(window=3)
        for obs in (h.transfer_obs, h.latency_obs, h.exec_obs):
            assert len(obs) == 0 and not obs and list(obs) == []
        assert h.latencies_in_window(0.0, 1e9) == []
        h.record_execution(0.0, 10.0, 1.0)
        assert list(h.exec_obs) == [(0.0, 10.0)]
        assert len(h.transfer_obs) == 0 and len(h.latency_obs) == 0

    def test_every_window_bounded_fifo(self):
        h = PerformanceHistory(window=3)
        for i in range(5):
            t = float(i)
            h.record_transfer(t, 10.0 * (i + 1), 1.0)
            h.record_execution(t, 10.0 * (i + 1), 1.0)
            h.record_petition_latency(t, 0.1 * i)
        kept = [2.0, 3.0, 4.0]
        assert list(h.transfer_obs) == [(t, 10.0 * (t + 1)) for t in kept]
        assert list(h.exec_obs) == [(t, 10.0 * (t + 1)) for t in kept]
        assert [t for t, _v in h.latency_obs] == kept

    def test_window_bounded(self):
        h = PerformanceHistory(window=4)
        for i in range(10):
            h.record_petition_latency(float(i), 0.1)
        assert len(h.latency_obs) == 4

    def test_validation(self):
        h = PerformanceHistory()
        with pytest.raises(ValueError):
            h.record_transfer(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            h.record_execution(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            h.record_petition_latency(0.0, -1.0)
        with pytest.raises(ValueError):
            h.latencies_in_window(5.0, 1.0)
        with pytest.raises(ValueError):
            PerformanceHistory(window=0)

    def test_exec_rate(self):
        h = PerformanceHistory(alpha=1.0)
        h.record_execution(0.0, 100.0, 4.0)
        assert h.estimated_exec_rate(0.0) == pytest.approx(25.0)


class TestSessionArchive:
    def test_closed_sessions_archived_in_order(self):
        s = PeerStats()
        s.start_session()
        s.record_message(1.0, ok=True)
        s.end_session()
        s.start_session()
        s.record_message(2.0, ok=False)
        s.record_message(3.0, ok=False)
        s.end_session()
        assert len(s.closed_sessions) == 2
        assert s.closed_sessions[0].messages_sent == 1
        assert s.closed_sessions[1].messages_sent == 2

    def test_archive_sums_to_totals(self):
        s = PeerStats()
        for oks in ([True, False], [True], [False, False, True]):
            s.start_session()
            for i, ok in enumerate(oks):
                s.record_message(float(i), ok=ok)
            s.end_session()
        archived_sent = sum(c.messages_sent for c in s.closed_sessions)
        assert archived_sent == s.total.messages_sent


class _PerKeyClock:
    """Reference: one refresh time per key, every refresh per key."""

    def __init__(self) -> None:
        self.seen = {}

    def note(self, key, now):
        prior = self.seen.get(key)
        if prior is None or now > prior:
            self.seen[key] = now


_KEYS = ("a", "b", "c", "d", "e")
_KEY_SETS = (frozenset("ab"), frozenset("bcd"), frozenset(_KEYS))
_clock_ops = st.lists(
    st.tuples(
        st.sampled_from(("stamp", "note", "note_many")),
        st.integers(0, len(_KEY_SETS) - 1),
        st.sampled_from(_KEYS),
        # Few distinct times, so refreshes tie and step back.
        st.integers(0, 6).map(float),
    ),
    max_size=40,
)


class TestStalenessClock:
    @given(_clock_ops, st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_stamps_match_per_key_times(self, ops, query):
        clock, ref = StalenessClock(), _PerKeyClock()
        for op, set_index, key, now in ops:
            if op == "stamp":
                clock.stamp(_KEY_SETS[set_index], now)
                for k in _KEY_SETS[set_index]:
                    ref.note(k, now)
            elif op == "note":
                clock.note_many((key,), now)
                ref.note(key, now)
            else:
                keys = sorted(_KEY_SETS[set_index])
                clock.note_many(keys, now)
                for k in keys:
                    ref.note(k, now)
            for k in _KEYS:
                want = ref.seen.get(k)
                expected = float("inf") if want is None else max(0.0, query - want)
                assert clock.age(k, query) == expected
            assert sorted(freshness_times(clock).items()) == sorted(ref.seen.items())

    def test_snapshot_keys_are_every_snapshot(self):
        s = PeerStats()
        s.record_message(1.0, ok=True)
        assert frozenset(s.snapshot(2.0)) == SNAPSHOT_KEYS
