"""Federation integration: joins, redirects, fan-out, broker death."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.config import GossipConfig
from repro.gossip.federation import Federation, _outside_block
from repro.gossip.shard import ShardMap
from repro.obs.trace import EventTrace
from repro.overlay.advertisements import ResourceAdvertisement
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.planetlab import build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network

from tests.conftest import run_process


def _stack(seed: int = 17, n_brokers: int = 3):
    testbed = build_testbed(federation_brokers=n_brokers)
    sim = Simulator()
    net = Network(
        sim, testbed.topology, streams=RandomStreams(seed), tracer=EventTrace()
    )
    ids = IdFactory()
    brokers = [
        Broker(net, hostname, ids, name=f"broker{i}")
        for i, hostname in enumerate(testbed.federation)
    ]
    fed = Federation(net, brokers, GossipConfig())
    clients = {
        label: SimpleClient(net, testbed.sc_hostname(label), ids, name=label)
        for label in testbed.sc_labels()
    }
    return sim, net, brokers, fed, clients


def _join_all(sim, fed, clients):
    def joiner():
        for client in clients.values():
            fed.enroll(client)
        for client in clients.values():
            yield sim.process(
                client.join_federated(fed.shard_map, fed.broker_advs())
            )
        fed.start_gossip()

    run_process(sim, joiner())


def _by_shard(fed, clients):
    shards: dict = {}
    for client in clients.values():
        shards.setdefault(
            fed.shard_key_of(client.host.hostname), []
        ).append(client)
    return shards


def _run_for(sim, seconds: float) -> None:
    def clock():
        yield seconds

    run_process(sim, clock())


class TestFederatedJoin:
    def test_every_peer_lands_on_its_shard_owner(self):
        sim, _net, _brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        for client in clients.values():
            assert client.online
            key = fed.shard_key_of(client.host.hostname)
            assert client.broker_adv.hostname == fed.shard_map.owner_of(key)

    def test_stale_map_join_follows_redirect(self):
        sim, _net, _brokers, fed, clients = _stack()
        client = next(iter(clients.values()))
        key = fed.shard_key_of(client.host.hostname)
        owner = fed.shard_map.owner_of(key)
        wrong = next(h for h in fed.shard_map.brokers if h != owner)
        doctored = ShardMap(
            version=1,
            assignment=tuple(
                (k, wrong if k == key else o)
                for k, o in fed.shard_map.assignment
            ),
            brokers=fed.shard_map.brokers,
        )
        adv = run_process(
            sim, client.join_federated(doctored, fed.broker_advs())
        )
        # The wrong broker refused with a redirect; the walk ended at
        # the true owner anyway.
        assert adv.hostname == owner
        assert client.broker_adv.hostname == owner

    def test_distinct_shards_exist(self):
        # The degradation cells assume a multi-shard map; guard it.
        _sim, _net, _brokers, fed, clients = _stack()
        assert len(_by_shard(fed, clients)) >= 2
        assert len(set(o for _k, o in fed.shard_map.assignment)) >= 2


class TestCrossShardDiscovery:
    def test_fanout_resolves_remote_publication(self):
        sim, _net, _brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        # Shards can share an owner (more shards than brokers): pick a
        # pair whose *home brokers* actually differ.
        ordered = sorted(clients.values(), key=lambda c: c.name)
        sharer = ordered[0]
        seeker = next(
            c
            for c in ordered
            if c.broker_adv.hostname != sharer.broker_adv.hostname
        )

        def scenario():
            sharer.discovery.publish(
                ResourceAdvertisement(
                    published_at=sim.now,
                    peer_id=sharer.peer_id,
                    kind="file",
                    name="notes.pdf",
                )
            )
            yield 5.0
            advs = yield sim.process(
                seeker.discovery.query("resource", attrs={"name": "notes.pdf"})
            )
            return advs

        advs = run_process(sim, scenario())
        assert advs and advs[0].name == "notes.pdf"


class TestBrokerDeath:
    def _crash_and_settle(self, seconds: float = 900.0):
        sim, net, brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        _run_for(sim, 60.0)
        # The victim owns the first shard that actually homes peers,
        # so the death orphans someone and exercises republication.
        shards = _by_shard(fed, clients)
        victim_key = sorted(shards)[0]
        victim = fed.brokers[fed.shard_map.owner_of(victim_key)]
        orphans = [
            c
            for c in clients.values()
            if c.broker_adv.hostname == victim.host.hostname
        ]
        assert orphans, "test premise: the victim must home peers"
        publisher = orphans[0]
        seeker = next(
            c
            for c in clients.values()
            if c.broker_adv.hostname != victim.host.hostname
        )

        def pre():
            publisher.discovery.publish(
                ResourceAdvertisement(
                    published_at=sim.now,
                    peer_id=publisher.peer_id,
                    kind="file",
                    name="orphaned.bin",
                )
            )
            yield 5.0

        run_process(sim, pre())
        net.host(victim.host.hostname).crash()
        _run_for(sim, seconds)
        return sim, net, brokers, fed, clients, victim, orphans, seeker

    def test_survivors_converge_on_successor_map(self):
        sim, net, brokers, fed, _clients, victim, _orphans, _seeker = (
            self._crash_and_settle()
        )
        survivors = [b for b in brokers if b is not victim]
        for broker in survivors:
            assert victim.host.hostname not in broker.shard_map.brokers
            assert broker.shard_map.version > 1
        assert survivors[0].shard_map == survivors[1].shard_map
        kinds = [e.kind for e in net.tracer.events]
        assert "gossip-dead" in kinds
        assert "shard-handoff" in kinds

    def test_orphans_rehome_to_survivors(self):
        (
            _sim, _net, _brokers, fed, clients, victim, orphans, _seeker
        ) = self._crash_and_settle()
        for client in orphans:
            assert client.online
            assert client.broker_adv.hostname != victim.host.hostname
            assert client.broker_adv.hostname in fed.shard_map.brokers

    def test_republication_keeps_resources_discoverable(self):
        sim, _net, _brokers, _fed, _clients, _victim, orphans, seeker = (
            self._crash_and_settle()
        )
        assert orphans[0].discovery.published, "publisher must remember its advs"

        def query():
            advs = yield sim.process(
                seeker.discovery.query(
                    "resource", attrs={"name": "orphaned.bin"}
                )
            )
            return advs

        advs = run_process(sim, query())
        assert advs and advs[0].name == "orphaned.bin"


class TestGossipReplacesKeepalive:
    def test_idle_peers_stay_eligible_without_beacons(self):
        sim, _net, brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        _run_for(sim, 600.0)  # long idle: zero keepalives sent
        eligible = {
            rec.adv.name
            for broker in brokers
            for rec in broker.candidates()
            if rec.is_local
        }
        assert eligible == set(clients)
        # An explicit recency window still applies on a gossip-governed
        # broker; with beacons off everyone ages out.
        stale = [
            rec
            for broker in brokers
            for rec in broker.candidates(liveness_timeout_s=60.0)
            if rec.is_local
        ]
        assert stale == []

    def test_crashed_peer_drops_out_via_gossip(self):
        sim, net, _brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        _run_for(sim, 60.0)
        shards = _by_shard(fed, clients)
        pair = next(members for members in shards.values() if len(members) >= 2)
        dead, witness = pair[0], pair[1]
        home = fed.brokers[dead.broker_adv.hostname]
        net.host(dead.host.hostname).crash()
        _run_for(sim, 300.0)
        rec = home.record(dead.peer_id)
        assert rec.online is False
        assert dead.name not in {
            r.adv.name for r in home.candidates() if r.is_local
        }
        # The witness (its ring neighbor) is unaffected.
        assert witness.name in {
            r.adv.name for r in home.candidates() if r.is_local
        }


_BEACONS = ("KeepAlive", "StatReport")


def _beacons_received(trace, since: float = 0.0) -> dict:
    """Beacons delivered to any host after ``since``, by payload type."""
    counts = dict.fromkeys(_BEACONS, 0)
    for ev in trace.of_kind("msg-recv"):
        kind = ev.attrs.get("payload_kind")
        if kind in counts and ev.time > since:
            counts[kind] += 1
    return counts


class TestBeaconsFollowJoinPath:
    def test_federated_join_starts_no_beacon_loops(self):
        sim, net, _brokers, fed, clients = _stack()
        _join_all(sim, fed, clients)
        assert all(client.online for client in clients.values())
        joined = sim.now
        _run_for(sim, 600.0)
        assert _beacons_received(net.tracer, since=joined) == dict.fromkeys(
            _BEACONS, 0
        )

    def test_connect_starts_both_beacon_loops(self, sim, network):
        broker = Broker(network, "a.example", IdFactory(), name="broker")
        client = SimpleClient(network, "b.example", broker.ids, name="client")
        run_process(sim, client.connect(broker.advertisement()))
        _run_for(sim, 600.0)
        # A keepalive every 30 s and a stat report every 60 s, the
        # first of each at the join.
        assert _beacons_received(network.tracer) == {
            "KeepAlive": 20, "StatReport": 10,
        }
        assert {ev.attrs.get("dst") for ev in network.tracer.of_kind("msg-recv")
                if ev.attrs.get("payload_kind") in _BEACONS} == {"a.example"}


class TestLongLinkPositions:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_outside_block_matches_the_filtered_roster(self, data):
        """The long-link candidates, indexed without building the list,
        are the old list comprehension's members in its order."""
        n = data.draw(st.integers(min_value=1, max_value=60), label="n")
        idx = data.draw(st.integers(min_value=0, max_value=n - 1), label="idx")
        successors = data.draw(
            st.integers(min_value=0, max_value=n - 1), label="successors")
        roster = [(f"peer{j}", f"host{j}") for j in range(n)]
        name = roster[idx][0]
        neighbors = {roster[(idx + step) % n][0] for step in range(1, successors + 1)}
        others = [
            (m, h) for m, h in roster if m != name and m not in neighbors
        ]
        block = successors + 1
        mapped = [
            roster[_outside_block(i, idx, block, n)]
            for i in range(n - block)
        ]
        assert mapped == others
