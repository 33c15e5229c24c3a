"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.obs.trace import EventTrace
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.planetlab import build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams (fixed seed)."""
    return RandomStreams(seed=42)


def make_two_node_topology(
    up_a: float = 10e6,
    up_b: float = 10e6,
    loss_b: float = 0.0,
    overhead_b: float = 0.05,
) -> Topology:
    """A minimal 2-node topology: fast node 'a', configurable node 'b'."""
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    topo.add_node(
        NodeSpec(
            hostname="a.example",
            site=site,
            up_bps=up_a,
            down_bps=up_a,
            overhead_s=0.01,
            overhead_cv=0.0,
            load_min_share=1.0,
            load_max_share=1.0,
        )
    )
    topo.add_node(
        NodeSpec(
            hostname="b.example",
            site=site,
            up_bps=up_b,
            down_bps=up_b,
            overhead_s=overhead_b,
            overhead_cv=0.0,
            per_mb_loss=loss_b,
            load_min_share=1.0,
            load_max_share=1.0,
        )
    )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


@pytest.fixture
def two_node_topology() -> Topology:
    """Deterministic 2-node topology (no jitter, no loss)."""
    return make_two_node_topology()


@pytest.fixture
def network(sim, streams, two_node_topology) -> Network:
    """A live network over the 2-node topology with tracing on."""
    return Network(sim, two_node_topology, streams=streams, tracer=EventTrace())


@pytest.fixture
def testbed():
    """The calibrated PlanetLab testbed (broker + SC1..SC8)."""
    return build_testbed()


@pytest.fixture
def overlay_pair(sim, streams, two_node_topology):
    """(broker, client, network): a wired but unconnected overlay pair."""
    net = Network(sim, two_node_topology, streams=streams)
    ids = IdFactory()
    broker = Broker(net, "a.example", ids, name="broker")
    client = SimpleClient(net, "b.example", ids, name="client")
    return broker, client, net


def run_process(sim: Simulator, generator):
    """Run one generator process to completion and return its value."""
    p = sim.process(generator)
    sim.run(until=p)
    return p.value


def connect(sim, broker, *clients):
    """Join all clients to the broker (helper for overlay tests)."""

    def go():
        badv = broker.advertisement()
        for c in clients:
            yield sim.process(c.connect(badv))

    run_process(sim, go())


class _Outage:
    """A bandwidth model whose rate is zero over ``[start, end)``."""

    def __init__(self, inner, start: float, end: float) -> None:
        self.inner = inner
        self.start = start
        self.end = end

    def rate_at(self, now: float) -> float:
        return 0.0 if self.start <= now < self.end else self.inner.rate_at(now)

    def mean_rate(self) -> float:
        return self.inner.mean_rate()


def gate_capacity(host, start: float, end: float, up: bool = True,
                  down: bool = True) -> None:
    """Collapse ``host``'s access links to zero over ``[start, end)``.

    ``Host`` is slotted, so the capacity accessors cannot be replaced
    on one instance; this wraps the bandwidth models they read.  A
    host builds its links on first use, so they are built here first:
    a wrapper over an unbuilt link would be replaced by the first flow.
    """
    if host._up is None:
        host._links()
    if up:
        host._up = _Outage(host._up, start, end)
    if down:
        host._down = _Outage(host._down, start, end)
