"""A host builds its links, heavy handling and CPU source on first use.

Each of those models draws only from its own named stream, and a
``ContendedBandwidth`` advances its epochs from -1 on its first query,
so a host that builds them late must see exactly what a host that
built them with itself sees.  The differential test below checks that
against a host built the eager way, at random first-use times,
including after the eager host has crossed several bandwidth epochs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network

from tests.conftest import make_two_node_topology

#: The bandwidth model's resampling period (ContendedBandwidth's default).
EPOCH_S = 30.0


def _topology() -> Topology:
    """A contended, diurnal, spiky host ``h`` and a plain sender ``o``."""
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    topo.add_node(NodeSpec(hostname="o.example", site=site))
    topo.add_node(
        NodeSpec(
            hostname="h.example",
            site=site,
            cpu_speed=2.0,
            up_bps=8e6,
            down_bps=12e6,
            overhead_s=0.4,
            overhead_cv=1.5,
            spike_prob=0.3,
            spike_factor=20.0,
            load_min_share=0.2,
            load_max_share=0.9,
            diurnal_depth=0.4,
            diurnal_peak_offset_s=3600.0,
        )
    )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _observe(seed, eager, early_queries, uses):
    """What ``h`` shows at each use time: link rates, the arrival of a
    heavy message sent to it and the duration of a task it runs.

    ``eager`` builds the models at time 0, as the host constructor
    once did, and queries the links at ``early_queries`` (times before
    the first use); otherwise the first use builds them.
    """
    sim = Simulator()
    net = Network(sim, _topology(), streams=RandomStreams(seed))
    host = net.host("h.example")
    sender = net.host("o.example")
    if eager:
        host._links()
        host._heavy_overhead()
        host._cpu_share_rng = net.streams.draws("cpu/h.example")
        for t in early_queries:
            host.up_capacity_at(t)
            host.down_capacity_at(t)
    rates = []
    sent = []
    tasks = []

    def drive():
        for t in uses:
            yield t - sim.now
            rates.append((host.up_capacity_at(t), host.down_capacity_at(t)))
            sent.append(sender.send(host, "petition"))
            tasks.append(sim.process(host.compute(10.0)))

    sim.process(drive())
    sim.run()
    arrivals = [d.delivered_at for d in sent]
    durations = [p.value for p in tasks]
    return rates, arrivals, durations, host.overhead_mean(), host.planned_up_bps()


class TestFirstUseMatchesEager:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        first_use=st.floats(min_value=0.0, max_value=20 * EPOCH_S),
        early=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=8 * EPOCH_S), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_rates_overheads_and_shares(self, seed, first_use, early, gaps):
        # The eager host may cross several epochs before the first use.
        early_queries = sorted(first_use * f for f in early)
        uses = []
        t = first_use
        for gap in gaps:
            uses.append(t)
            t += gap
        eager = _observe(seed, True, early_queries, uses)
        lazy = _observe(seed, False, early_queries, uses)
        assert lazy == eager


class TestUnbuiltHost:
    def test_a_new_host_has_built_nothing_it_has_not_used(self):
        net = Network(Simulator(), _topology(), streams=RandomStreams(7))
        host = net.host("h.example")
        assert host._up is None and host._down is None
        assert host._overhead is None
        assert host._cpu_share_rng is None
        assert net.streams.names() == ("light/h.example",)

    def test_a_light_message_builds_no_heavy_handling(self):
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(7))
        a, b = net.host("a.example"), net.host("b.example")
        a.send(b, "confirm", light=True)
        sim.run()
        assert b._overhead is None and a._overhead is None
        a.send(b, "petition")
        assert b._overhead is not None and a._overhead is None

    def test_a_flow_builds_both_endpoints_links(self):
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(7))
        a, b = net.host("a.example"), net.host("b.example")
        done = a.start_flow(b, 1e6)
        assert a._up is not None and b._down is not None
        sim.run(until=done)
        assert done.ok
