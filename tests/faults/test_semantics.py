"""Behavioral tests: faults seen through the overlay protocols.

Each test drives a full Session and asserts on what the *protocols*
experience — aborts, liveness lapses, ranking shifts — not on injector
internals (those live in test_injectors.py).
"""

from __future__ import annotations

import pytest

from repro.errors import HostDownError, TransferAborted
from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import BrokerOutage, FaultPlan, NodeSlowdown, Partition, get_profile
from repro.overlay.peer import PeerConfig
from repro.selection.base import SelectionContext, Workload
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit

#: Short timeouts so failed attempts resolve within a test's horizon.
FAST = PeerConfig(
    petition_timeout_s=10.0,
    petition_retries=2,
    confirm_timeout_s=10.0,
    confirm_retries=2,
    bulk_max_attempts=6,
)


class TestBrokerOutage:
    def test_outage_mid_transfer_aborts_then_recovers(self):
        session = Session(ExperimentConfig(seed=13, peer_config=FAST))

        def scenario(s):
            sim, broker = s.sim, s.broker
            adv = s.client("SC1").advertisement()
            # Outage opens 1 s in — mid-transfer — and heals after 40 s.
            plan = FaultPlan(
                name="t", schedule=((1.0, BrokerOutage(duration_s=40.0)),)
            )
            plan.install(s)
            first = None
            try:
                yield sim.process(broker.transfers.send_file(adv, "f1", mbit(30)))
            except (TransferAborted, HostDownError) as exc:
                first = exc
            # Past the outage window the same transfer goes through.
            yield 60.0
            outcome = yield sim.process(
                broker.transfers.send_file(adv, "f2", mbit(5))
            )
            return first, outcome

        first, outcome = session.run(scenario)
        assert first is not None  # the outage killed the in-flight transfer
        assert outcome.ok
        episode = session.faults.episodes[0]
        assert episode.kind == "broker_outage"
        assert episode.recovery_s == pytest.approx(40.0)


class TestPartition:
    def test_partition_during_petition_aborts_then_heals(self):
        session = Session(ExperimentConfig(seed=13, peer_config=FAST))

        def scenario(s):
            sim, broker = s.sim, s.broker
            adv = s.client("SC2").advertisement()
            plan = FaultPlan(
                name="t",
                schedule=((0.0, Partition(group_a=("SC2",), duration_s=60.0)),),
            )
            plan.install(s)
            yield 1.0  # the cut is live; petitions now cross it
            aborted = False
            try:
                yield sim.process(broker.transfers.send_file(adv, "f1", mbit(2)))
            except TransferAborted:
                aborted = True
            yield 90.0  # heal
            outcome = yield sim.process(
                broker.transfers.send_file(adv, "f2", mbit(2))
            )
            return aborted, outcome

        aborted, outcome = session.run(scenario)
        assert aborted  # every petition/ack was lost on the cut
        assert outcome.ok


class TestStragglerRanking:
    @staticmethod
    def _economic_order(straggle: str | None):
        """Warm up observed history, optionally with one peer slowed,
        and return the economic ranking over SC1/SC2."""
        def scenario(s):
            sim, broker = s.sim, s.broker
            if straggle is not None:
                # SC7-sized: a 20x slowdown lifts the better peer's
                # 10.5 s estimate by only 3 s, short of the other's 18.2 s.
                NodeSlowdown(target=straggle, factor=100.0).apply(s.faults)
            for label in ("SC1", "SC2"):
                for i in range(2):
                    yield sim.process(
                        broker.transfers.send_file(
                            s.client(label).advertisement(),
                            f"w-{label}-{i}",
                            mbit(5),
                            n_parts=4,
                        )
                    )
            # Let one keepalive round report the warmup's queues as
            # drained, so both peers are idle and rank on history.
            yield 40.0
            candidates = [
                r
                for r in broker.candidates(kind="simpleclient")
                if r.adv.name in ("SC1", "SC2")
            ]
            ctx = SelectionContext(
                broker=broker,
                now=sim.now,
                workload=Workload(transfer_bits=mbit(10), n_parts=2),
                candidates=candidates,
            )
            ranked = SchedulingBasedSelector(reserve=False).rank(ctx)
            return [r.record.adv.name for r in ranked]

        # Install an empty plan so scenario code can reach a runtime.
        # Default (long) protocol timeouts: the slowed peer must still
        # answer petitions, just expensively.
        config = ExperimentConfig(seed=17, fault_plan=FaultPlan(name="empty"))
        session = Session(config)
        return session.run(scenario)

    def test_slowdown_demotes_the_straggler(self):
        baseline = self._economic_order(None)
        best = baseline[0]
        slowed = self._economic_order(best)
        # The observed history now prices the straggler out of first place.
        assert slowed[0] != best
        assert slowed.index(best) > baseline.index(best)


class TestDeterminism:
    @staticmethod
    def _run(seed: int):
        config = ExperimentConfig(
            seed=seed,
            peer_config=FAST,
            trace=True,
            fault_plan=get_profile("flaky_links"),
        )
        session = Session(config)

        def scenario(s):
            sim, broker = s.sim, s.broker
            done = 0
            for i in range(4):
                try:
                    yield sim.process(
                        broker.transfers.send_file(
                            s.client(f"SC{i + 1}").advertisement(),
                            f"f{i}",
                            mbit(8),
                            n_parts=2,
                        )
                    )
                    done += 1
                except (TransferAborted, HostDownError):
                    yield 5.0
            return done

        done = session.run(scenario)
        timeline = session.faults.timeline
        wire = tuple(
            (e.time, e.attrs.get("src"), e.attrs.get("dst"), e.attrs.get("payload_kind"), e.attrs.get("lost"))
            for e in session.tracer.of_kind("msg-send")
        )
        return done, timeline, wire

    def test_same_seed_same_faults_and_wire_path(self):
        a = self._run(23)
        b = self._run(23)
        assert a == b
        done, timeline, wire = a
        assert timeline and wire

    def test_different_seed_diverges(self):
        assert self._run(23)[1] != self._run(24)[1]
