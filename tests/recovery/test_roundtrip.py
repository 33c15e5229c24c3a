"""Fault-plan + recovery config JSON round-trip: serialize, load,
re-run — the same seed must walk the same wire path."""

from __future__ import annotations

import json

from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults.injectors import BrokerOutage, NodeSlowdown
from repro.faults.plan import FaultPlan
from repro.faults.processes import RandomWindows
from repro.overlay.peer import PeerConfig
from repro.recovery import RecoveryConfig
from repro.swarm import Leg, SwarmCoordinator


def _config():
    plan = FaultPlan(
        name="mix",
        schedule=((80.0, BrokerOutage(duration_s=45.0)),),
        processes=(
            RandomWindows(
                fault=NodeSlowdown(target="SC4", factor=10.0),
                mean_gap_s=120.0,
                mean_duration_s=60.0,
                horizon_s=600.0,
                stream_name="faults/test/slow",
            ),
        ),
    )
    recovery = RecoveryConfig(
        replication_interval_s=25.0,
        staleness_budget_s=150.0,
    )
    return ExperimentConfig(
        seed=51,
        repetitions=1,
        peer_config=PeerConfig(
            petition_timeout_s=30.0, petition_retries=2, confirm_retries=2
        ),
        fault_plan=plan,
        recovery=recovery,
        trace=True,
    )


class TestSerialization:
    def test_json_round_trip_is_lossless(self):
        config = _config()
        wire = json.dumps(config.to_dict())
        back = ExperimentConfig.from_dict(json.loads(wire))
        assert back == config
        assert back.recovery == config.recovery
        assert back.fault_plan == config.fault_plan

    def test_recovery_knobs_survive(self):
        config = _config()
        back = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert back.recovery.replication_interval_s == 25.0
        assert back.recovery.staleness_budget_s == 150.0


def _run(config):
    session = Session(config)

    def scenario(s):
        outs = []

        def select(needed, exclude):
            recs = [r for r in s.candidates() if r.adv.name not in exclude]
            return [Leg(r.adv) for r in recs[:needed]]

        for i in range(3):
            driver = SwarmCoordinator(
                s.network, s.broker, f"rt-{i}", 16e6, 4, select, k=1
            )
            outs.append((yield s.sim.process(driver.download())))
            yield 60.0
        return outs

    outs = session.run(scenario)
    return session, outs


class TestWirePathDeterminism:
    def test_deserialized_config_replays_identically(self):
        config = _config()
        restored = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        session_a, outs_a = _run(config)
        session_b, outs_b = _run(restored)
        # Identical fault timelines...
        assert session_a.faults.timeline == session_b.faults.timeline
        # ...identical transfer outcomes...
        assert [o.ok for o in outs_a] == [o.ok for o in outs_b]
        assert [o.finished_at for o in outs_a] == [
            o.finished_at for o in outs_b
        ]
        # ...and an identical wire path, event for event.
        trace_a = [(e.kind, e.time) for e in session_a.tracer.events]
        trace_b = [(e.kind, e.time) for e in session_b.tracer.events]
        assert trace_a == trace_b
