"""Tests for the peer's periodic loops (keepalive / stat reports)."""

from __future__ import annotations

import pytest

from repro.overlay.peer import PeerConfig

from tests.conftest import connect


class TestKeepaliveCadence:
    def test_beacons_arrive_on_schedule(self, sim, streams, two_node_topology):
        from repro.overlay.broker import Broker
        from repro.overlay.client import SimpleClient
        from repro.overlay.ids import IdFactory
        from repro.simnet.transport import Network

        net = Network(sim, two_node_topology, streams=streams)
        ids = IdFactory()
        broker = Broker(net, "a.example", ids, name="hub")
        client = SimpleClient(
            net, "b.example", ids, name="client",
            config=PeerConfig(keepalive_interval_s=10.0),
        )
        connect(sim, broker, client)
        rec = broker.registry[client.peer_id]
        t0 = rec.last_seen
        sim.run(until=sim.now + 35.0)
        # ~3 beacons over 35 s at a 10 s interval.
        assert rec.last_seen > t0 + 25.0

    def test_crashed_client_pauses_beacons(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        sim.run(until=sim.now + 35.0)
        client.host.crash()
        frozen = broker.registry[client.peer_id].last_seen
        sim.run(until=sim.now + 120.0)
        assert broker.registry[client.peer_id].last_seen == frozen
        client.host.recover()
        sim.run(until=sim.now + 65.0)
        assert broker.registry[client.peer_id].last_seen > frozen

    def test_queue_state_piggybacked(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.stats.pending_transfers = 4
        sim.run(until=sim.now + 35.0)
        rec = broker.registry[client.peer_id]
        assert rec.pending_transfers == 4
        assert rec.snapshot["outbox_len_now"] == 4.0


class TestStatReportCadence:
    def test_snapshot_refreshes(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        sim.run(until=sim.now + 65.0)
        rec = broker.registry[client.peer_id]
        first = dict(rec.snapshot)
        assert "pct_files_sent_total" in first
        # New activity shows up in the next report.
        client.stats.record_file_attempt(sim.now, ok=False, cancelled=True)
        sim.run(until=sim.now + 65.0)
        assert rec.snapshot["pct_transfers_cancelled_session"] > 0.0
