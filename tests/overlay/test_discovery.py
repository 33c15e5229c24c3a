"""Tests for the client-side discovery service."""

from __future__ import annotations

import pytest

from repro.errors import NotConnectedError
from repro.overlay.advertisements import ResourceAdvertisement

from tests.conftest import connect, run_process


class TestPublish:
    def test_publish_requires_broker(self, overlay_pair):
        broker, client, net = overlay_pair
        adv = ResourceAdvertisement(
            published_at=0.0, peer_id=client.peer_id, kind="file", name="x"
        )
        with pytest.raises(NotConnectedError):
            client.discovery.publish(adv)

    def test_query_requires_broker(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        p = sim.process(client.discovery.query("peer"))
        with pytest.raises(NotConnectedError):
            sim.run(until=p)


class TestQueryAndCache:
    def test_query_populates_directory(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        advs = run_process(sim, client.discovery.query("peer"))
        assert advs
        # Directory learned the discovered peers.
        for adv in advs:
            assert client.directory[adv.peer_id] == adv.hostname
