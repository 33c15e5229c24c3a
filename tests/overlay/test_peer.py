"""Tests for the peer node base class (membership, requests, stats)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, UnknownPeerError
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.overlay.messages import KeepAlive, StatReport
from repro.overlay.peer import PeerConfig, PeerNode, RequestTimeout
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network

from tests.conftest import connect, make_two_node_topology, run_process
from tests.simnet.reference_race import use_race


class TestPeerConfigValidation:
    def test_defaults_valid(self):
        PeerConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("keepalive_interval_s", 0.0),
            ("petition_timeout_s", -1.0),
            ("petition_retries", 0),
            ("task_queue_limit", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ConfigError):
            PeerConfig(**kwargs)


class TestIdentity:
    def test_advertisement_reflects_host(self, overlay_pair):
        broker, client, net = overlay_pair
        adv = client.advertisement()
        assert adv.hostname == "b.example"
        assert adv.kind == "simpleclient"
        assert adv.peer_id == client.peer_id

    def test_learn_and_host_for(self, overlay_pair):
        broker, client, net = overlay_pair
        client.learn(broker.advertisement())
        host = client.host_for(broker.peer_id)
        assert host.hostname == "a.example"

    def test_unknown_peer_unroutable(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        from repro.overlay.ids import IdFactory

        with pytest.raises(UnknownPeerError):
            client.host_for(IdFactory("other").peer_id("ghost"))


class TestConnect:
    def test_connect_registers_and_opens_session(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        assert client.online
        assert client.stats.session_active
        assert client.peer_id in broker.registry
        assert broker.registry[client.peer_id].online

    def test_disconnect_notifies_broker(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.disconnect()
        sim.run()
        assert not client.online
        assert not broker.registry[client.peer_id].online
        assert not client.stats.session_active

    def test_reconnect_after_disconnect(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.disconnect()
        sim.run()
        connect(sim, broker, client)
        assert client.online
        assert broker.registry[client.peer_id].online
        assert client.stats.sessions_started == 2

    def test_keepalives_update_record(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.stats.pending_tasks = 2
        sim.run(until=sim.now + 65.0)
        rec = broker.registry[client.peer_id]
        assert rec.pending_tasks == 2

    def test_stat_reports_update_snapshot(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.stats.record_message(sim.now, ok=False)
        sim.run(until=sim.now + 130.0)
        rec = broker.registry[client.peer_id]
        assert rec.snapshot["pct_messages_ok_session"] == pytest.approx(0.5, abs=0.5)
        assert "pct_files_sent_total" in rec.snapshot


class TestWaiters:
    def test_fulfill_wakes_oldest(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        ev1 = client.expect("key")
        ev2 = client.expect("key")
        assert client.fulfill("key", 1)
        assert ev1.triggered and not ev2.triggered
        assert client.fulfill("key", 2)
        assert ev2.triggered

    def test_fulfill_without_waiter_false(self, overlay_pair):
        broker, client, net = overlay_pair
        assert not client.fulfill("nothing", 1)

    def test_cancel_wait_removes(self, overlay_pair):
        broker, client, net = overlay_pair
        ev = client.expect("key")
        client.cancel_wait("key", ev)
        assert not client.fulfill("key", 1)


class TestRequest:
    def test_request_timeout_exhausts_retries(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        # Nobody replies to a KeepAlive, so the request times out.
        broker_host = net.host("a.example")
        gen = client.request(
            broker_host,
            KeepAlive(peer_id=client.peer_id),
            key=("never", 1),
            timeout=1.0,
            retries=3,
        )
        p = sim.process(gen)
        with pytest.raises(RequestTimeout):
            sim.run(until=p)
        # Three failed attempts recorded in message stats.
        assert client.stats.total.messages_sent == 3
        assert client.stats.total.messages_ok == 0

    def test_request_interaction_stats_per_destination(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        broker_host = net.host("a.example")
        gen = client.request(
            broker_host,
            KeepAlive(peer_id=client.peer_id),
            key=("never", 2),
            timeout=1.0,
            retries=2,
        )
        p = sim.process(gen)
        with pytest.raises(RequestTimeout):
            sim.run(until=p)
        inter = client.interaction_stats("a.example")
        assert inter.total.messages_sent == 2
        assert inter.total.messages_ok == 0

    @staticmethod
    def _timed_out_request(delegate: bool):
        """When an unanswered request raised, and what it recorded,
        waited on as a child process or delegated to."""
        sim = Simulator()
        net = Network(
            sim, make_two_node_topology(), streams=RandomStreams(seed=42)
        )
        ids = IdFactory()
        Broker(net, "a.example", ids, name="broker")
        client = SimpleClient(net, "b.example", ids, name="client")

        def caller():
            gen = client.request(
                net.host("a.example"),
                KeepAlive(peer_id=client.peer_id),
                key=("never", 3),
                timeout=1.5,
                retries=3,
            )
            try:
                if delegate:
                    yield from sim.call(gen)
                else:
                    yield sim.process(gen)
            except RequestTimeout:
                return sim.now
            return None

        raised_at = run_process(sim, caller())
        return (
            raised_at,
            client.stats.snapshot(sim.now),
            client.interaction_stats("a.example").snapshot(sim.now),
        )

    def test_delegated_timeout_matches_child_process(self):
        delegated = self._timed_out_request(delegate=True)
        assert delegated == self._timed_out_request(delegate=False)
        raised_at, stats, _ = delegated
        assert raised_at == pytest.approx(4.5)
        assert stats["pct_messages_ok_total"] == 0.0

    def test_timed_out_request_matches_the_race(self, monkeypatch):
        # ``within`` raises when the any-of race did, with the same
        # per-attempt message statistics.
        timed = self._timed_out_request(delegate=True)
        use_race(monkeypatch)
        assert timed == self._timed_out_request(delegate=True)
        assert timed[0] == pytest.approx(4.5)

    def test_query_ids_monotonic(self, overlay_pair):
        broker, client, net = overlay_pair
        assert client.next_query_id() < client.next_query_id()
