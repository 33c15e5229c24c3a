"""Tests for the broker: registry, discovery index, estimates."""

from __future__ import annotations

import pytest

from repro.errors import UnknownPeerError
from repro.overlay.advertisements import ResourceAdvertisement
from repro.overlay.broker import PeerRecord

from tests.conftest import connect, run_process


class TestRegistry:
    def test_record_lookup(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        assert rec.adv.hostname == "b.example"

    def test_unknown_record_raises(self, overlay_pair):
        broker, client, net = overlay_pair
        with pytest.raises(UnknownPeerError):
            broker.record(client.peer_id)

    def test_candidates_filters_kind_and_online(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        assert [r.adv.name for r in broker.candidates()] == ["client"]
        broker.registry[client.peer_id].online = False
        assert broker.candidates() == []
        assert [r.adv.name for r in broker.candidates(online_only=False)] == [
            "client"
        ]

    def test_rejoin_does_not_duplicate(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        connect(sim, broker, client2 := client)  # same peer rejoining
        assert len(broker.registry) == 1

    def test_interaction_stats_shared_with_record(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        assert rec.interaction is broker.interaction_stats("b.example")
        assert rec.perf is broker.observed_perf(client.peer_id)


class TestReservations:
    def test_reserve_extends_busy_until(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        broker.record(client.peer_id).reserve(100.0)
        rec = broker.record(client.peer_id)
        assert rec.busy_until == 100.0
        broker.record(client.peer_id).reserve(50.0)  # never shrinks
        assert rec.busy_until == 100.0

    def test_ready_at_and_idle(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        assert rec.ready_at(sim.now) == sim.now
        rec.reserve(sim.now + 10.0)
        assert rec.ready_at(sim.now) == sim.now + 10.0


class TestDiscoveryIndex:
    def test_join_publishes_peer_adv(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        advs = run_process(sim, client.discovery.query("peer"))
        assert any(a.peer_id == client.peer_id for a in advs)

    def test_attr_filtering(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        advs = run_process(
            sim, client.discovery.query("peer", {"name": "nonexistent"})
        )
        assert advs == ()

    def test_published_resources_discoverable(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        adv = ResourceAdvertisement(
            published_at=sim.now,
            peer_id=client.peer_id,
            kind="file",
            name="data.bin",
            attrs={"size_bits": 10.0},
        )
        client.discovery.publish(adv)
        # Bounded run: a connected client keeps periodic keepalives on
        # the agenda, so an unbounded run() would never drain.
        sim.run(until=sim.now + 1.0)
        found = run_process(sim, client.discovery.query("resource"))
        assert len(found) == 1
        assert found[0].name == "data.bin"

    def test_expired_advs_not_served(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        adv = ResourceAdvertisement(
            published_at=sim.now,
            lifetime_s=5.0,
            peer_id=client.peer_id,
            kind="file",
            name="temp.bin",
        )
        client.discovery.publish(adv)
        sim.run(until=sim.now + 10.0)
        found = run_process(sim, client.discovery.query("resource"))
        assert found == ()


class TestEstimates:
    def test_transfer_estimate_uses_history(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        rec.perf.record_transfer(sim.now, bits=1e6, seconds=1.0)  # 1 Mbps
        est = broker.estimate_transfer_seconds(rec, 2e6)
        assert est >= 2.0  # 2 Mb at 1 Mbps, plus setup

    def test_transfer_estimate_fallback_planning_rate(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        est = broker.estimate_transfer_seconds(
            broker.record(client.peer_id), 10e6
        )
        # Fallback = min(broker up, client down) = 10 Mbps -> ~1 s + setup.
        assert 0.9 < est < 2.0

    def test_exec_estimate(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        rec.perf.record_execution(sim.now, ops=100.0, seconds=10.0)
        assert broker.estimate_exec_seconds(rec, 50.0) == pytest.approx(5.0)


class TestSelectionSnapshot:
    def test_interaction_overlays_message_shares(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        rec.snapshot["pct_messages_ok_total"] = 1.0
        rec.interaction.record_message(sim.now, ok=False)
        merged = rec.selection_snapshot(sim.now)
        assert merged["pct_messages_ok_total"] == 0.0

    def test_pending_defaults_from_keepalive_state(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        rec = broker.record(client.peer_id)
        rec.pending_transfers = 2
        rec.snapshot.pop("pending_transfers", None)
        merged = rec.selection_snapshot(sim.now)
        assert merged["pending_transfers"] == 2.0

    def test_no_interaction_keeps_pushed_values(self, sim):
        from repro.overlay.advertisements import PeerAdvertisement
        from repro.overlay.ids import IdFactory

        ids = IdFactory()
        adv = PeerAdvertisement(
            published_at=0.0, peer_id=ids.peer_id(), name="x", hostname="x"
        )
        rec = PeerRecord(adv=adv, joined_at=0.0, last_seen=0.0)
        rec.snapshot["pct_messages_ok_total"] = 0.7
        assert rec.selection_snapshot(0.0)["pct_messages_ok_total"] == 0.7
