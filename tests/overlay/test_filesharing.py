"""Tests for the file-sharing service (share / discover / fetch)."""

from __future__ import annotations

import pytest

from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.filesharing import FileNotShared, SharedFile
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import connect, run_process


def _tri_topology() -> Topology:
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    for hostname, up in (
        ("hub.example", 50e6),
        ("provider.example", 8e6),
        ("fetcher.example", 8e6),
    ):
        topo.add_node(
            NodeSpec(
                hostname=hostname, site=site, up_bps=up, down_bps=up,
                overhead_s=0.01, overhead_cv=0.0,
                load_min_share=1.0, load_max_share=1.0,
            )
        )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


@pytest.fixture
def sharing_net():
    sim = Simulator()
    net = Network(sim, _tri_topology(), streams=RandomStreams(29))
    ids = IdFactory()
    broker = Broker(net, "hub.example", ids, name="hub")
    provider = SimpleClient(net, "provider.example", ids, name="provider")
    fetcher = SimpleClient(net, "fetcher.example", ids, name="fetcher")
    connect(sim, broker, provider, fetcher)
    return sim, broker, provider, fetcher


class TestSharedFile:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedFile(name="", size_bits=1.0)
        with pytest.raises(ValueError):
            SharedFile(name="x", size_bits=0.0)


class TestShare:
    def test_share_publishes_advertisement(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        provider.sharing.share("lecture.avi", mbit(20))
        sim.run(until=sim.now + 1.0)
        advs = run_process(
            sim,
            fetcher.discovery.query("resource", {"name": "lecture.avi"}),
        )
        assert len(advs) == 1
        assert advs[0].attrs["hostname"] == "provider.example"
        assert advs[0].attrs["size_bits"] == mbit(20)


class TestFetch:
    def test_end_to_end_fetch(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        provider.sharing.share("dataset.bin", mbit(16))
        sim.run(until=sim.now + 1.0)
        chosen = run_process(sim, fetcher.sharing.fetch("dataset.bin"))
        assert chosen.attrs["hostname"] == "provider.example"
        # Let the provider receive the final confirm and close its side.
        sim.run(until=sim.now + 2.0)
        assert provider.stats.total.files_sent_ok == 1
        assert fetcher.host.bits_received == pytest.approx(mbit(16))

    def test_fetch_unknown_file_raises(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        p = sim.process(fetcher.sharing.fetch("ghost.bin"))
        with pytest.raises(FileNotShared, match="no provider"):
            sim.run(until=p)

    def test_chooser_picks_among_providers(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        # Both the provider and the broker share the same file.
        provider.sharing.share("mirrored.bin", mbit(8))
        broker.sharing.share("mirrored.bin", mbit(8))
        sim.run(until=sim.now + 1.0)

        def prefer_hub(advs):
            for adv in advs:
                if adv.attrs["hostname"] == "hub.example":
                    return adv
            return advs[0]

        chosen = run_process(
            sim, fetcher.sharing.fetch("mirrored.bin", choose=prefer_hub)
        )
        assert chosen.attrs["hostname"] == "hub.example"

    def test_fetch_parts_parameter_respected(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        provider.sharing.share("parts.bin", mbit(8))
        sim.run(until=sim.now + 1.0)
        run_process(sim, fetcher.sharing.fetch("parts.bin", n_parts=8))
        sim.run(until=sim.now + 2.0)
        # 8 part confirmations landed in the provider's observations.
        obs = provider.observed_perf(fetcher.peer_id)
        assert len(obs.transfer_obs) >= 8

    def test_wait_for_file_cancellable(self, sharing_net):
        sim, broker, provider, fetcher = sharing_net
        ev = fetcher.transfers.wait_for_file("never.bin")
        fetcher.transfers.cancel_wait_for_file("never.bin", ev)
        assert not ev.triggered
