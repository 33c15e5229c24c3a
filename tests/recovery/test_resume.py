"""Resumable sends: the supervised delivery driver fixed at the sender.

A :class:`~repro.swarm.coordinator.SwarmCoordinator` whose fixed end
is the sending broker picks one receiver at a time; these tests pin its
checkpoint/resume and its wait for the sender's own host.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults.injectors import NodeCrash
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.overlay.peer import PeerConfig
from repro.recovery import RecoveryConfig
from repro.simnet.kernel import Simulator
from repro.swarm import Leg, SwarmCoordinator

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


@pytest.fixture(autouse=True)
def _registry():
    """Sessions record into a live registry, so counters can be read."""
    with use_registry(MetricsRegistry()):
        yield


def _config(seed=13, fault_plan=None, trace=False):
    return ExperimentConfig(
        seed=seed,
        repetitions=1,
        peer_config=_PEER_CONFIG,
        recovery=RecoveryConfig(),
        fault_plan=fault_plan,
        trace=trace,
    )


def _crash_receiver_plan():
    """SC4 dies at t=90 (mid-transfer) and stays down a long time."""
    return FaultPlan(
        name="crash-receiver",
        schedule=((90.0, NodeCrash(target="SC4", duration_s=600.0)),),
    )


def _send(s, select, filename, total_bits=TOTAL_BITS, n_parts=N_PARTS):
    """A k=1 delivery from the broker, receivers picked by ``select``."""
    return SwarmCoordinator(
        s.network, s.broker, filename, total_bits, n_parts, select, k=1
    )


def _receivers(s, *names, exclude=()):
    """Legs for the named receivers (every client when none is named)."""
    return tuple(
        Leg(r.adv)
        for r in s.candidates()
        if (not names or r.adv.name in names) and r.adv.name not in exclude
    )


def _run_crash_resume(seed=13):
    """The crash-resume run: its session, outcome, driver, and the
    replacement receiver's ``wait_for_file`` event."""
    session = Session(
        _config(seed=seed, fault_plan=_crash_receiver_plan(), trace=True)
    )
    arrivals = []

    def scenario(s):
        def select(needed, exclude):
            # First the doomed peer, then a survivor serves the resume:
            # a different peer finishes the file.
            if not exclude:
                return _receivers(s, "SC4")
            legs = _receivers(s, exclude=exclude + ("SC4",))[:needed]
            for leg in legs:
                # Registered before the replacement's petition.
                arrivals.append(
                    s.client(leg.name).transfers.wait_for_file("big.bin")
                )
            return legs

        driver = _send(s, select, "big.bin")
        out = yield s.sim.process(driver.download())
        return out, driver

    out, driver = session.run(scenario)
    (arrival,) = arrivals
    return session, out, driver, arrival


def _proved_by(session):
    """Piece -> the receiver whose confirm proved it, from the run's
    ``swarm-piece`` trace events (one per proof)."""
    events = session.tracer.of_kind("swarm-piece")
    proved_by = {e.attrs.get("piece"): e.attrs.get("source") for e in events}
    assert len(proved_by) == len(events)
    return proved_by


class TestCrashResume:
    """Acceptance: a 16-part transfer interrupted by a receiver crash
    resumes on another receiver without re-sending verified parts."""

    def test_resumes_without_resending_verified_parts(self):
        session, out, driver, _ = _run_crash_resume()
        assert out.ok
        assert out.resumes == 1
        assert out.reassignments == 1
        assert out.recovered_bits > 0
        first, second = out.sources_used
        assert first == "SC4" and second != "SC4"
        assert out.sources_failed == ["SC4"]
        tracker = driver._tracker
        assert tracker.complete
        assert tracker.proven_bits == pytest.approx(TOTAL_BITS)
        proved_by = _proved_by(session)
        assert sorted(proved_by) == list(range(N_PARTS))
        proven_first = {i for i, name in proved_by.items() if name == first}
        sent_second = {r.piece for r in out.requests if r.source == second}
        # The replacement leg streamed only the unproven parts: none
        # that the crashed receiver had already proven was re-sent.
        assert proven_first
        assert not proven_first & sent_second
        assert proven_first | sent_second == set(range(N_PARTS))
        assert out.recovered_bits == pytest.approx(
            len(proven_first) * TOTAL_BITS / N_PARTS
        )
        assert all(proved_by[i] == second for i in sorted(sent_second))

    def test_resume_emits_trace_and_metrics_events(self):
        session, out, _, _ = _run_crash_resume()
        reassign = session.tracer.last("swarm-reassign")
        assert reassign.attrs.get("source") == "SC4"
        assert reassign.attrs.get("error")
        reg = session.metrics
        assert reg.counter("recovery.resumes").value == out.resumes == 1
        assert reg.counter("recovery.transfers_recovered").value == 1
        assert reg.counter("recovery.recovered_mbit").value == pytest.approx(
            out.recovered_bits / 1e6
        )
        assert reg.counter("swarm.downloads_ok").value == 1

    def test_a_second_resume_counts_its_proven_parts_once(self):
        # SC4 dies mid-file, then its replacement SC2 dies too: the
        # third receiver resumes over every part the first two proved.
        plan = FaultPlan(
            name="crash-two-receivers",
            schedule=(
                (90.0, NodeCrash(target="SC4", duration_s=600.0)),
                (300.0, NodeCrash(target="SC2", duration_s=600.0)),
            ),
        )
        session = Session(_config(fault_plan=plan))

        def scenario(s):
            def select(needed, exclude):
                if not exclude:
                    return _receivers(s, "SC4")
                if exclude == ("SC4",):
                    return _receivers(s, "SC2")
                return _receivers(s, exclude=exclude)[:needed]

            return (yield s.sim.process(_send(s, select, "big.bin").download()))

        out = session.run(scenario)
        assert out.ok
        assert out.sources_failed == ["SC4", "SC2"]
        assert out.resumes == 2
        reg = session.metrics
        assert reg.counter("recovery.resumes").value == 2
        # Both counters read the latest resume, as the outcome does.
        assert reg.counter("recovery.recovered_mbit").value == pytest.approx(
            out.recovered_bits / 1e6
        )
        assert reg.counter("recovery.parts_skipped").value == pytest.approx(
            out.recovered_bits / (TOTAL_BITS / N_PARTS)
        )

    def test_same_seed_same_wire_path(self):
        _, out_a, _, _ = _run_crash_resume(seed=13)
        _, out_b, _, _ = _run_crash_resume(seed=13)
        assert out_a.finished_at == out_b.finished_at
        assert out_a.recovered_bits == out_b.recovered_bits
        assert out_a.sources_used == out_b.sources_used
        assert out_a.requests == out_b.requests
        assert out_a.proofs == out_b.proofs


class TestOneLegInline:
    """At k=1 ``download`` runs each leg itself: the crashed receiver's
    leg and then its replacement."""

    def test_builds_no_choke_manager_and_one_process(self, monkeypatch):
        spawned = []
        spawn = Simulator.process

        def recording(sim, generator, name=""):
            spawned.append(generator.gi_code.co_name)
            return spawn(sim, generator, name)

        monkeypatch.setattr(Simulator, "process", recording)
        _, out, driver, _ = _run_crash_resume()
        assert out.ok and len(out.sources_used) == 2
        assert driver._choke is None
        # The scenario's one ``download`` process is the delivery's
        # only process: no leg ran as a ``_worker`` process.
        assert spawned.count("download") == 1
        assert "_worker" not in spawned


def _open_swarmed_files(transfers):
    """Filenames with an open multi-stream inbound transfer."""
    return {
        state.petition.filename
        for state in transfers._incoming.values()
        if state.petition.file_parts and not state.done
    }


class TestReceiverProgress:
    """A receiver keeps cross-stream file progress only while a stream
    of that file is open, and a resumed delivery completes the file at
    a receiver that got only the unproven parts."""

    def test_no_progress_outlives_its_streams(self):
        session, out, _, _ = _run_crash_resume()
        assert out.ok
        # Let the final stream's TransferComplete land.
        session.sim.run(until=session.sim.now + 60.0)
        peers = [session.broker, *session.clients.values()]
        for peer in peers:
            transfers = peer._transfers
            if transfers is None:
                continue
            assert set(transfers._file_progress) <= _open_swarmed_files(
                transfers
            ), peer.name
        # The replacement receiver finished the file: nothing is held.
        replacement = session.client(out.sources_used[1])
        assert "big.bin" not in replacement.transfers._file_progress

    def test_replacement_fires_wait_for_file_on_owed_parts(self):
        session, out, _, arrival = _run_crash_resume()
        assert out.ok
        replacement = out.sources_used[1]
        owed = {r.piece for r in out.requests if r.source == replacement}
        # The replacement got only the parts the crashed receiver had
        # not proven, and that alone completed the file there.
        assert arrival.triggered
        petition = arrival.value
        assert petition.filename == "big.bin"
        assert set(petition.file_parts) == owed
        assert len(owed) < N_PARTS
        receiver = session.client(replacement)
        assert "big.bin" not in receiver.transfers._file_progress


class TestSupervision:
    def test_petition_queues_while_sender_down(self):
        session = Session(_config(trace=True))

        def scenario(s):
            s.broker.host.crash()
            driver = _send(
                s, lambda needed, exclude: _receivers(s, exclude=exclude)[:1],
                "queued.bin", 8e6, 2,
            )
            proc = s.sim.process(driver.download())
            yield 42.0
            s.broker.host.recover()
            out = yield proc
            return out

        out = session.run(scenario)
        assert out.ok
        assert out.waited_s >= 42.0
        # The wait burned no candidate: one receiver served the file.
        assert len(out.sources_used) == 1
        assert out.sources_failed == []
        kinds = [e.kind for e in session.tracer.events]
        assert "petition-queued" in kinds
        assert session.metrics.counter(
            "recovery.transfers_recovered"
        ).value == 1

    def test_deadline_expires_bounded(self):
        # The caller's deadline bounds the wait through abort(): the
        # delivery returns an outcome instead of stalling or raising.
        session = Session(_config(trace=True))

        def scenario(s):
            s.broker.host.crash()
            driver = _send(
                s, lambda needed, exclude: _receivers(s)[:1], "never.bin",
                8e6, 2,
            )
            started = s.sim.now
            proc = s.sim.process(driver.download())
            yield 30.0
            driver.abort("deadline")
            out = yield proc
            return out, s.sim.now - started

        (out, elapsed) = session.run(scenario)
        assert not out.ok
        assert out.reason == "deadline"
        assert out.sources_used == []
        assert elapsed == pytest.approx(30.0, abs=5.0)
        assert session.metrics.counter("swarm.downloads_failed").value == 1

    def test_no_candidates_fails_without_raising(self):
        session = Session(_config())

        def scenario(s):
            out = yield s.sim.process(
                _send(
                    s, lambda needed, exclude: (), "nobody.bin", 8e6, 2
                ).download()
            )
            return out

        out = session.run(scenario)
        assert not out.ok
        assert out.reason == "no candidates"
        assert out.requests == []

    def test_last_candidate_failing_fails_without_raising(self):
        # Every receiver the selection offers dies: the delivery runs
        # out of candidates and reports it.
        session = Session(
            _config(fault_plan=_crash_receiver_plan(), trace=True)
        )

        def scenario(s):
            out = yield s.sim.process(
                _send(
                    s,
                    lambda needed, exclude: _receivers(
                        s, "SC4", exclude=exclude
                    ),
                    "big.bin",
                ).download()
            )
            return out

        out = session.run(scenario)
        assert not out.ok
        assert out.sources_failed == ["SC4"]
        assert out.reason == "all sources failed"
        assert 0 < len(out.proofs) < N_PARTS
