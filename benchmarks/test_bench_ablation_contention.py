"""Ablation: sliver contention vs straggler severity (DESIGN.md §6.5).

PlanetLab slivers share their node with up to ~100 others; our model's
``load_min_share``/``load_max_share`` band expresses how much of the
nominal access rate survives contention.  Sweeping the band for an
SC7-like node shows how contention alone manufactures a straggler.
"""

from __future__ import annotations

from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network
from repro.units import mbit

from benchmarks.conftest import emit
from repro.experiments.report import render_table

#: (label, load_min_share, load_max_share) — lighter to heavier load.
CONTENTION_LEVELS = (
    ("idle node", 0.90, 1.00),
    ("typical sliver", 0.50, 0.90),
    ("loaded sliver", 0.30, 0.60),
    ("thrashing sliver", 0.15, 0.35),
)
REPS = 5


def _topology(load_min: float, load_max: float) -> Topology:
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    topo.add_node(
        NodeSpec(
            hostname="hub.example", site=site, up_bps=50e6, down_bps=50e6,
            overhead_s=0.005, overhead_cv=0.0,
            load_min_share=1.0, load_max_share=1.0,
        )
    )
    topo.add_node(
        NodeSpec(
            hostname="peer.example", site=site, up_bps=2e6, down_bps=2e6,
            overhead_s=0.05, overhead_cv=0.2, per_mb_loss=0.015,
            load_min_share=load_min, load_max_share=load_max,
        )
    )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _mean_transfer_minutes(load_min: float, load_max: float) -> float:
    total = 0.0
    for rep in range(REPS):
        sim = Simulator()
        net = Network(
            sim, _topology(load_min, load_max), streams=RandomStreams(300 + rep)
        )
        ids = IdFactory()
        broker = Broker(net, "hub.example", ids, name="hub")
        client = SimpleClient(net, "peer.example", ids, name="peer")

        def go():
            yield sim.process(client.connect(broker.advertisement()))
            outcome = yield sim.process(
                broker.transfers.send_file(
                    client.advertisement(), "f", mbit(50), n_parts=4
                )
            )
            return outcome.transmission_time

        p = sim.process(go())
        total += sim.run(until=p)
    return total / REPS / 60.0


def _sweep():
    rows = []
    times = []
    for label, lo, hi in CONTENTION_LEVELS:
        t = _mean_transfer_minutes(lo, hi)
        times.append(t)
        rows.append((label, f"[{lo:.2f}, {hi:.2f}]", t))
    return rows, times


def test_bench_ablation_contention():
    rows, times = _sweep()
    # Heavier contention must slow the 50 Mb / 4-part transfer,
    # and the thrashing sliver must be a clear straggler.
    assert times == sorted(times)
    assert times[-1] > 2.0 * times[0]
    emit(
        "Ablation — sliver contention vs transfer time (50 Mb, 4 parts)",
        render_table(("contention", "share band", "mean transfer (min)"), rows),
    )
