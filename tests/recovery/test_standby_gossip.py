"""FailoverDirector under gossip: blips, vetoes, legitimate handover.

Promotion is sticky (no automatic fail-back), so a *spurious* one is
expensive: a partitioned-but-alive primary would be double-promoted
for the rest of the run.  These tests pin the two defences:

* broker blips shorter than the detection window reset the miss
  counter instead of promoting;
* at the miss threshold, a SWIM view that still vouches for the
  primary — alive *and* confirmed since we first suspected it, via an
  indirect ping-req path through an edge peer — suppresses the
  promotion; when gossip agrees the primary is gone, handover
  proceeds.
"""

from __future__ import annotations

import math

from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import get_profile
from repro.faults.injectors import BrokerOutage
from repro.faults.plan import FaultPlan
from repro.gossip.config import GossipConfig
from repro.recovery import RecoveryConfig


def _config(seed=21, fault_plan=None):
    return ExperimentConfig(
        seed=seed,
        repetitions=1,
        recovery=RecoveryConfig(),
        gossip=GossipConfig(),
        fault_plan=fault_plan,
        trace=True,
    )


def _idle(horizon_s):
    def scenario(session):
        yield horizon_s
        return None

    return scenario


def _short_blips():
    # Each outage is far below the detection window (2 consecutive
    # missed 30 s checks): one probe at most can land inside a blip.
    return FaultPlan(
        name="short_blips",
        schedule=(
            (100.0, BrokerOutage(duration_s=25.0)),
            (400.0, BrokerOutage(duration_s=25.0)),
            (700.0, BrokerOutage(duration_s=25.0)),
        ),
    )


class TestBrokerBlip:
    def test_short_blips_do_not_cause_sticky_promotion(self):
        session = Session(_config(fault_plan=_short_blips()))
        session.run(_idle(1000.0))
        director = session.failover
        assert director is not None
        assert not director.promoted, (
            "sub-window blips must reset the miss counter, not promote"
        )
        assert session.leader_broker is session.broker
        assert math.isnan(director.mean_failover_latency_s())
        assert "broker-failover" not in [
            e.kind for e in session.tracer.events
        ]

    def test_blip_profile_run_is_deterministic(self):
        def once():
            session = Session(
                _config(fault_plan=get_profile("broker_blip"))
            )
            session.run(_idle(900.0))
            return (
                session.failover.promoted,
                tuple(session.failover.suppressions),
                session.sim.now,
            )

        assert once() == once()


class TestGossipVeto:
    def test_partitioned_but_alive_primary_is_not_promoted(self):
        session = Session(_config())
        session.run(_idle(60.0))  # connect + settle while healthy
        # Cut only the standby<->primary pair: the director's probes
        # fail, but SWIM ping-reqs through edge peers still reach the
        # primary and keep confirming it alive.
        session.network.add_partition(
            [session.standby.host.hostname],
            [session.broker.host.hostname],
        )
        session.run(_idle(600.0))
        director = session.failover
        assert not director.promoted, (
            "a partitioned-but-alive primary must not be double-promoted"
        )
        assert director.suppressions, "the gossip veto must have fired"
        assert session.leader_broker is session.broker
        st = session.standby.gossip_agent.state_of(session.broker.name)
        assert st.status == "alive"

    def test_dead_primary_is_still_promoted(self):
        plan = FaultPlan(
            name="die",
            schedule=((50.0, BrokerOutage(duration_s=900.0)),),
        )
        session = Session(_config(fault_plan=plan))
        session.run(_idle(700.0))
        director = session.failover
        assert director.promoted, "gossip agrees: nobody reaches the primary"
        assert len(director.failovers) == 1
        assert director.failovers[0].latency_s >= 0.0
        assert session.leader_broker is session.standby

    def test_gossip_refutes_requires_fresh_confirmation(self):
        session = Session(_config())
        session.run(_idle(60.0))
        director = session.failover
        agent = session.standby.gossip_agent
        st = agent.state_of(session.broker.name)
        assert st is not None and st.status == "alive"
        # Fresh confirmation: vouches.
        director.suspected_at = st.confirmed_at - 1.0
        assert director._gossip_refutes()
        # Suspected after the last confirmation: stale, no vouching.
        director.suspected_at = st.confirmed_at + 1.0
        assert not director._gossip_refutes()
