"""SWIM agent unit tests: probe rounds, suspicion, refutation, rumors."""

from __future__ import annotations

from repro.gossip.config import GossipConfig
from repro.gossip.messages import Rumor
from repro.gossip.swim import PIGGYBACK_MAX, RUMOR_RETRANSMITS, SwimAgent
from repro.obs.trace import EventTrace
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network

from tests.conftest import run_process

CFG = GossipConfig(
    probe_interval_s=10.0,
    probe_timeout_s=2.0,
    suspect_timeout_s=20.0,
)


def _ring_topology(n: int) -> Topology:
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    for i in range(n):
        topo.add_node(
            NodeSpec(
                hostname=f"n{i}.example", site=site,
                up_bps=10e6, down_bps=10e6,
                overhead_s=0.01, overhead_cv=0.0,
                load_min_share=1.0, load_max_share=1.0,
            )
        )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _mesh(n: int, seed: int = 7):
    """n peers, each tracking and probing all others."""
    sim = Simulator()
    net = Network(sim, _ring_topology(n), streams=RandomStreams(seed),
                  tracer=EventTrace())
    ids = IdFactory()
    peers = [
        SimpleClient(net, f"n{i}.example", ids, name=f"p{i}")
        for i in range(n)
    ]
    agents = []
    for peer in peers:
        agent = SwimAgent(peer, CFG)
        for other in peers:
            if other is not peer:
                agent.track(other.name, other.host.hostname)
        agent.probe_ring = [o.name for o in peers if o is not peer]
        agents.append(agent)
    return sim, net, peers, agents


def _run_for(sim, seconds: float) -> None:
    def clock():
        yield seconds

    run_process(sim, clock())


class TestStableNetwork:
    def test_no_suspicion_while_everyone_answers(self):
        sim, _net, _peers, agents = _mesh(4)
        for agent in agents:
            agent.start()
        _run_for(sim, 300.0)
        for agent in agents:
            assert agent.alive_members() == tuple(
                m for m in agent.table
            ), "stable members must stay alive"
            assert agent.suspect_events == 0

    def test_probes_count_control_messages(self):
        sim, _net, peers, agents = _mesh(2)
        agents[0].start()
        _run_for(sim, 100.0)
        # The probed side handled pings; the prober handled acks.
        assert peers[1].control_messages > 0
        assert peers[0].control_messages > 0


class TestFailureDetection:
    def test_crashed_member_goes_suspect_then_dead(self):
        sim, net, peers, agents = _mesh(3)
        for agent in agents:
            agent.start()
        _run_for(sim, 50.0)
        net.host(peers[2].host.hostname).crash()
        _run_for(sim, 120.0)
        for agent in agents[:2]:
            st = agent.state_of("p2")
            assert st.status == "dead"
        kinds = [e.kind for e in net.tracer.events]
        assert "gossip-suspect" in kinds
        assert "gossip-dead" in kinds

    def test_suspect_timer_respects_timeout(self):
        sim, net, peers, agents = _mesh(2)
        agents[0].start()
        _run_for(sim, 15.0)
        net.host(peers[1].host.hostname).crash()
        # One probe round marks it suspect; death needs the timeout.
        # Earliest possible suspect is ~7s after the crash, and the
        # earliest death follows suspect_timeout_s later, so at +20s
        # the member must be suspect but cannot yet be dead.
        _run_for(sim, 20.0)
        st = agents[0].state_of("p1")
        assert st.status == "suspect"
        _run_for(sim, CFG.suspect_timeout_s + CFG.probe_interval_s)
        assert agents[0].state_of("p1").status == "dead"


class TestRefutation:
    def test_alive_member_refutes_suspicion(self):
        sim, _net, peers, agents = _mesh(3)
        for agent in agents:
            agent.start()
        # Gossip a false suspicion about p2 (it is alive and probing).
        false_rumor = Rumor(
            member="p2", hostname=peers[2].host.hostname,
            status="suspect", incarnation=0,
        )
        agents[0].absorb(false_rumor)
        assert agents[0].state_of("p2").status == "suspect"
        _run_for(sim, 120.0)
        # p2 bumped its incarnation and the refutation spread back.
        st = agents[0].state_of("p2")
        assert st.status == "alive"
        assert st.incarnation >= 1
        assert agents[0].false_suspect_events >= 1
        assert agents[2].incarnation >= 1

    def test_refutation_needs_fresh_incarnation(self):
        sim, _net, peers, agents = _mesh(2)
        # A stale alive rumor must not clear a fresher suspicion.
        agents[0].absorb(Rumor(
            member="p1", hostname=peers[1].host.hostname,
            status="suspect", incarnation=3,
        ))
        agents[0].absorb(Rumor(
            member="p1", hostname=peers[1].host.hostname,
            status="alive", incarnation=3,
        ))
        assert agents[0].state_of("p1").status == "suspect"
        agents[0].absorb(Rumor(
            member="p1", hostname=peers[1].host.hostname,
            status="alive", incarnation=4,
        ))
        assert agents[0].state_of("p1").status == "alive"

    def test_death_is_final(self):
        sim, _net, peers, agents = _mesh(2)
        agents[0].absorb(Rumor(
            member="p1", hostname=peers[1].host.hostname,
            status="dead", incarnation=0,
        ))
        agents[0].absorb(Rumor(
            member="p1", hostname=peers[1].host.hostname,
            status="alive", incarnation=99,
        ))
        assert agents[0].state_of("p1").status == "dead"


class TestRumors:
    def test_piggyback_is_bounded(self):
        sim, _net, peers, agents = _mesh(2)
        for i in range(3 * PIGGYBACK_MAX):
            agents[0].absorb(Rumor(
                member=f"ghost{i}", hostname="n1.example",
                status="suspect", incarnation=0,
            ))
        assert agents[0].track_unknown is False
        # Untracked ghosts are ignored entirely — queue only real ones.
        agents[0].track_unknown = True
        for i in range(3 * PIGGYBACK_MAX):
            agents[0].absorb(Rumor(
                member=f"ghost{i}", hostname="n1.example",
                status="suspect", incarnation=0,
            ))
        taken = agents[0]._take_piggyback()
        assert len(taken) <= PIGGYBACK_MAX

    def test_rumor_retires_after_budget(self):
        sim, _net, peers, agents = _mesh(2)
        agents[0].track_unknown = True
        agents[0].absorb(Rumor(
            member="ghost", hostname="n1.example",
            status="suspect", incarnation=0,
        ))
        for _ in range(RUMOR_RETRANSMITS):
            assert any(
                r.member == "ghost" for r in agents[0]._take_piggyback()
            )
        assert not any(
            r.member == "ghost" for r in agents[0]._take_piggyback()
        )

    def test_deterministic_same_seed(self):
        outcomes = []
        for _ in range(2):
            sim, net, peers, agents = _mesh(4, seed=13)
            for agent in agents:
                agent.start()
            _run_for(sim, 60.0)
            net.host(peers[3].host.hostname).crash()
            _run_for(sim, 200.0)
            outcomes.append((
                sim.now,
                tuple(
                    (e.kind, round(e.time, 9), tuple(sorted(e.attrs.items())))
                    for e in net.tracer.events
                    if e.kind.startswith("gossip-")
                ),
                tuple(p.control_messages for p in peers),
            ))
        assert outcomes[0] == outcomes[1]
