"""Tests for ResumableSender: checkpoint/resume and supervision."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults.injectors import NodeCrash
from repro.faults.plan import FaultPlan
from repro.overlay.peer import PeerConfig
from repro.recovery import RecoveryConfig, ResumableSender

#: Fast-failing protocol knobs: one part to SC4 takes ~11 s, so a
#: crash at t=90 lands mid-file with several parts already proven.
_PEER_CONFIG = PeerConfig(
    petition_timeout_s=40.0,
    petition_retries=2,
    confirm_timeout_s=20.0,
    confirm_retries=2,
    bulk_max_attempts=4,
)

N_PARTS = 16
TOTAL_BITS = 320e6


def _config(seed=13, recovery=None, fault_plan=None, trace=False):
    return ExperimentConfig(
        seed=seed,
        repetitions=1,
        peer_config=_PEER_CONFIG,
        recovery=recovery if recovery is not None else RecoveryConfig(),
        fault_plan=fault_plan,
        trace=trace,
    )


def _crash_receiver_plan():
    """SC4 dies at t=90 (mid-transfer) and stays down a long time."""
    return FaultPlan(
        name="crash-receiver",
        schedule=((90.0, NodeCrash(target="SC4", duration_s=600.0)),),
    )


def _run_crash_resume(seed=13):
    session = Session(
        _config(seed=seed, fault_plan=_crash_receiver_plan(), trace=True)
    )

    def scenario(s):
        sender = ResumableSender(s.broker, s.config.recovery)

        def select(attempt, failed):
            # First try the doomed peer, then let the survivors serve
            # the resume — a different peer finishes the file.
            if attempt == 1:
                recs = [r for r in s.candidates() if r.adv.name == "SC4"]
            else:
                recs = [
                    r
                    for r in s.candidates()
                    if r.peer_id not in failed and r.adv.name != "SC4"
                ]
            return recs[0].adv if recs else None

        out = yield s.sim.process(
            sender.send_file(select, "big.bin", TOTAL_BITS, n_parts=N_PARTS)
        )
        return out, sender.ledger

    out, ledger = session.run(scenario)
    return session, out, ledger


class TestCrashResume:
    """Acceptance: a 16-part transfer interrupted by a receiver crash
    resumes without re-sending verified parts."""

    def test_resumes_without_resending_verified_parts(self):
        session, out, ledger = _run_crash_resume()
        assert out.ok
        assert out.attempts == 2
        assert out.resumes == 1
        assert out.parts_skipped >= 1
        assert out.recovered_bits > 0
        # Every part crossed the wire exactly once: the proven prefix
        # was never re-sent by the resume attempt.
        assert out.parts_sent == N_PARTS
        first, second = out.outcomes
        sent_first = {p.index for p in first.parts}
        sent_second = {p.index for p in second.parts}
        assert not sent_first & sent_second
        assert sent_first | sent_second == set(range(N_PARTS))
        # The resume went to a different peer.
        assert len(out.peers) == 2
        assert out.peers[0] != out.peers[1]
        entry = ledger.entry("big.bin")
        assert entry.is_complete
        assert entry.verified_bits == pytest.approx(TOTAL_BITS)

    def test_resume_emits_trace_and_metrics_events(self):
        session, out, _ = _run_crash_resume()
        kinds = [e.kind for e in session.tracer.events]
        assert "transfer-interrupted" in kinds
        assert "transfer-resume" in kinds
        resume = session.tracer.last("transfer-resume")
        assert resume.get("skipped") == out.parts_skipped

    def test_same_seed_same_wire_path(self):
        _, out_a, _ = _run_crash_resume(seed=13)
        _, out_b, _ = _run_crash_resume(seed=13)
        assert out_a.finished_at == out_b.finished_at
        assert out_a.parts_skipped == out_b.parts_skipped
        assert out_a.peers == out_b.peers
        times_a = [p.confirmed_at for o in out_a.outcomes for p in o.parts]
        times_b = [p.confirmed_at for o in out_b.outcomes for p in o.parts]
        assert times_a == times_b


class TestLedgerEdgeCases:
    """Resume against a ledger whose state changed underneath it."""

    def test_resume_after_ledger_truncation_resends_exactly_the_tail(self):
        # A durable store lost its tail: a fresh delivery of the same
        # file must re-send exactly the dropped parts, nothing more.
        session = Session(_config())

        def scenario(s):
            sender = ResumableSender(s.broker, s.config.recovery)

            def select(attempt, failed):
                # A reliable receiver: the test is about ledger
                # bookkeeping, not link-level retransmission luck.
                recs = [r for r in s.candidates() if r.adv.name == "SC4"]
                return recs[0].adv if recs else None

            first = yield s.sim.process(
                sender.send_file(select, "big.bin", TOTAL_BITS, n_parts=N_PARTS)
            )
            assert first.ok
            dropped = sender.ledger.truncate("big.bin", keep_parts=8)
            assert dropped == tuple(range(8, N_PARTS))
            second = yield s.sim.process(
                sender.send_file(select, "big.bin", TOTAL_BITS, n_parts=N_PARTS)
            )
            return second, sender.ledger

        out, ledger = session.run(scenario)
        assert out.ok
        assert out.resumes == 1
        assert out.parts_skipped == 8
        assert out.parts_sent == N_PARTS - 8
        assert {p.index for o in out.outcomes for p in o.parts} == set(
            range(8, N_PARTS)
        )
        entry = ledger.entry("big.bin")
        assert entry.is_complete
        assert entry.verified_bits == pytest.approx(TOTAL_BITS)

    def test_mid_delivery_discard_rebuilds_from_live_entry(self):
        # Regression: the attempt loop used to hold the entry fetched
        # at send_file start; a mid-delivery discard left it reading a
        # detached object while the service wrote proofs to a new live
        # one.  The loop must re-fetch per attempt and re-send the
        # whole file against the recreated (proof-less) entry.
        session = Session(
            _config(fault_plan=_crash_receiver_plan(), trace=True)
        )

        def scenario(s):
            sender = ResumableSender(s.broker, s.config.recovery)

            def select(attempt, failed):
                if attempt == 1:
                    recs = [r for r in s.candidates() if r.adv.name == "SC4"]
                else:
                    recs = [
                        r
                        for r in s.candidates()
                        if r.peer_id not in failed and r.adv.name != "SC4"
                    ]
                return recs[0].adv if recs else None

            proc = s.sim.process(
                sender.send_file(select, "big.bin", TOTAL_BITS, n_parts=N_PARTS)
            )
            # The receiver crashes at t=90 with parts already proven;
            # wipe the ledger while attempt 1 is still dying.
            yield 95.0
            sender.ledger.discard("big.bin")
            out = yield proc
            return out, sender.ledger

        out, ledger = session.run(scenario)
        assert out.ok
        # No proofs survived the discard, so nothing was skippable.
        assert out.resumes == 0
        assert out.parts_skipped == 0
        # Attempt 1's pre-crash parts were re-sent by attempt 2.
        assert out.parts_sent > N_PARTS
        entry = ledger.entry("big.bin")
        assert entry.is_complete
        assert entry.verified_bits == pytest.approx(TOTAL_BITS)


class TestSupervision:
    def test_petition_queues_while_sender_down(self):
        session = Session(_config(trace=True))

        def scenario(s):
            sender = ResumableSender(s.broker, s.config.recovery)

            def select(attempt, failed):
                recs = [r for r in s.candidates() if r.peer_id not in failed]
                return recs[0].adv if recs else None

            s.broker.host.crash()
            proc = s.sim.process(
                sender.send_file(select, "queued.bin", 8e6, n_parts=2)
            )
            yield 42.0
            s.broker.host.recover()
            out = yield proc
            return out

        out = session.run(scenario)
        assert out.ok
        assert out.waited_s > 0
        kinds = [e.kind for e in session.tracer.events]
        assert "petition-queued" in kinds

    def test_deadline_expires_bounded(self):
        session = Session(
            _config(
                recovery=RecoveryConfig(
                    petition_deadline_s=30.0, supervision_poll_s=5.0
                ),
                trace=True,
            )
        )

        def scenario(s):
            sender = ResumableSender(s.broker, s.config.recovery)
            s.broker.host.crash()
            started = s.sim.now
            out = yield s.sim.process(
                sender.send_file(
                    lambda a, f: None, "never.bin", 8e6, n_parts=2
                )
            )
            return out, s.sim.now - started

        (out, elapsed) = session.run(scenario)
        assert not out.ok
        assert out.reason == "deadline"
        # Supervision is deadline-bounded: the sender gave up instead
        # of stalling forever on its dead host.
        assert elapsed == pytest.approx(30.0, abs=5.0)
        kinds = [e.kind for e in session.tracer.events]
        assert "petition-expired" in kinds

    def test_no_candidates_exhausts_attempts(self):
        session = Session(
            _config(
                recovery=RecoveryConfig(
                    max_transfer_attempts=2, resume_backoff_s=1.0
                )
            )
        )

        def scenario(s):
            sender = ResumableSender(s.broker, s.config.recovery)
            out = yield s.sim.process(
                sender.send_file(
                    lambda a, f: None, "nobody.bin", 8e6, n_parts=2
                )
            )
            return out

        out = session.run(scenario)
        assert not out.ok
        assert out.reason == "no candidate"
        assert out.parts_sent == 0
