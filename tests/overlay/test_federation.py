"""Tests for broker-to-broker registry replication (``replicate_to``).

A :class:`StateSync` carries a broker's local registrations to its
replicas, which record them as remote peers they can select over.
"""

from __future__ import annotations

import pytest

from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.selection.base import SelectionContext, Workload
from repro.selection.scheduling import SchedulingBasedSelector
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import run_process


def _quad_topology() -> Topology:
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    for hostname, up, overhead in (
        ("hub-a.example", 50e6, 0.005),
        ("hub-b.example", 50e6, 0.005),
        ("peer-1.example", 8e6, 0.02),
        ("peer-2.example", 4e6, 0.05),
    ):
        topo.add_node(
            NodeSpec(
                hostname=hostname, site=site, up_bps=up, down_bps=up,
                overhead_s=overhead, overhead_cv=0.0,
                load_min_share=1.0, load_max_share=1.0,
            )
        )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


@pytest.fixture
def federation():
    """(sim, broker_a, broker_b, peer1@a, peer2@b) — connected, not yet
    replicating."""
    sim = Simulator()
    net = Network(sim, _quad_topology(), streams=RandomStreams(21))
    ids = IdFactory()
    broker_a = Broker(net, "hub-a.example", ids, name="broker-a")
    broker_b = Broker(net, "hub-b.example", ids, name="broker-b")
    peer1 = SimpleClient(net, "peer-1.example", ids, name="peer-1")
    peer2 = SimpleClient(net, "peer-2.example", ids, name="peer-2")

    def go():
        yield sim.process(peer1.connect(broker_a.advertisement()))
        yield sim.process(peer2.connect(broker_b.advertisement()))

    run_process(sim, go())
    return sim, broker_a, broker_b, peer1, peer2


def settle(sim, seconds=2.0):
    sim.run(until=sim.now + seconds)


class TestPeering:
    def test_digest_exchanges_records(self, federation):
        sim, a, b, p1, p2 = federation
        a.replicate_to(b.advertisement())
        b.replicate_to(a.advertisement())
        settle(sim)
        assert p2.peer_id in a.registry
        assert p1.peer_id in b.registry
        assert not a.record(p2.peer_id).is_local
        assert a.record(p2.peer_id).home_broker == b.peer_id

    def test_one_directional_peering(self, federation):
        sim, a, b, p1, p2 = federation
        a.replicate_to(b.advertisement())  # a pushes to b only
        settle(sim)
        assert p1.peer_id in b.registry   # b learned a's peer
        assert p2.peer_id not in a.registry  # a learned nothing

    def test_local_records_authoritative(self, federation):
        sim, a, b, p1, p2 = federation
        a.replicate_to(b.advertisement())
        b.replicate_to(a.advertisement())
        settle(sim, seconds=90.0)
        # Replication never takes over a record's ownership: p1's home
        # registration at a stays local, b's copy stays remote.
        assert a.record(p1.peer_id).is_local
        assert not b.record(p1.peer_id).is_local

    def test_self_peering_rejected(self, federation):
        sim, a, b, p1, p2 = federation
        with pytest.raises(ValueError):
            a.replicate_to(a.advertisement())

    def test_non_broker_peering_rejected(self, federation):
        sim, a, b, p1, p2 = federation
        with pytest.raises(ValueError):
            a.replicate_to(p1.advertisement())


class TestFederatedView:
    def test_candidates_include_remote(self, federation):
        sim, a, b, p1, p2 = federation
        b.replicate_to(a.advertisement())
        settle(sim)
        names = {r.adv.name for r in a.candidates()}
        assert names == {"peer-1", "peer-2"}
        local = {r.adv.name for r in a.candidates() if r.is_local}
        assert local == {"peer-1"}

    def test_remote_state_propagates(self, federation):
        sim, a, b, p1, p2 = federation
        b.replicate_to(a.advertisement())
        p2.stats.pending_tasks = 3
        # Wait for p2's keepalive to reach b, then b's sync to reach a.
        sim.run(until=sim.now + 130.0)
        assert a.record(p2.peer_id).pending_tasks == 3

    def test_offline_propagates(self, federation):
        sim, a, b, p1, p2 = federation
        b.replicate_to(a.advertisement())
        settle(sim)
        b.registry[p2.peer_id].online = False
        sim.run(until=sim.now + 130.0)
        assert not a.record(p2.peer_id).online
        assert all(r.adv.name != "peer-2" for r in a.candidates())


class TestFederatedSelection:
    def test_economic_selects_across_brokers(self, federation):
        sim, a, b, p1, p2 = federation
        b.replicate_to(a.advertisement())
        settle(sim)
        selector = SchedulingBasedSelector(reserve=False)
        ctx = SelectionContext(
            broker=a,
            now=sim.now,
            workload=Workload(transfer_bits=mbit(10)),
            candidates=a.candidates(),
        )
        # peer-1 (8 Mbps) beats the remote peer-2 (4 Mbps); both ranked.
        ranked = selector.rank(ctx)
        assert [rc.record.adv.name for rc in ranked] == ["peer-1", "peer-2"]

    def test_transfer_to_remote_peer_works(self, federation):
        sim, a, b, p1, p2 = federation
        b.replicate_to(a.advertisement())
        settle(sim)
        rec = a.record(p2.peer_id)
        outcome = run_process(
            sim,
            a.transfers.send_file(rec.adv, "cross-broker", mbit(5), n_parts=2),
        )
        assert outcome.ok
