"""Ablation: the loss-amplification mechanism behind Figure 5.

Sweeps the per-Mb loss rate and measures whole-file vs 16-part
transmission time on an otherwise identical peer.  The whole/16-part
ratio must grow with the loss rate — at zero loss granularity barely
matters (per-part overheads even make parts slightly costlier), while
at PlanetLab-like loss the whole file loses badly.  This isolates the
design choice DESIGN.md §6.1 calls out.
"""

from __future__ import annotations

from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.overlay.peer import PeerConfig
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network
from repro.units import mbit

from benchmarks.conftest import emit
from repro.experiments.report import render_table

LOSS_RATES = (0.0, 0.01, 0.02, 0.03)
REPS = 5


def _topology(loss: float) -> Topology:
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
            overhead_s=0.05, overhead_cv=0.0, per_mb_loss=loss,
            load_min_share=1.0, load_max_share=1.0,
        )
    )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _mean_time(loss: float, n_parts: int, seed: int) -> float:
    total = 0.0
    for rep in range(REPS):
        sim = Simulator()
        net = Network(sim, _topology(loss), streams=RandomStreams(seed + rep))
        ids = IdFactory()
        # Generous retry budget so even the heaviest loss point
        # completes (the whole-file expected attempts grow fast).
        cfg = PeerConfig(bulk_max_attempts=400)
        broker = Broker(net, "hub.example", ids, name="hub", config=cfg)
        client = SimpleClient(net, "peer.example", ids, name="peer", config=cfg)

        def go():
            yield sim.process(client.connect(broker.advertisement()))
            outcome = yield sim.process(
                broker.transfers.send_file(
                    client.advertisement(), "f", mbit(100), n_parts=n_parts
                )
            )
            return outcome.transmission_time

        p = sim.process(go())
        total += sim.run(until=p)
    return total / REPS


def _sweep():
    rows = []
    ratios = {}
    for loss in LOSS_RATES:
        whole = _mean_time(loss, 1, seed=100)
        parts16 = _mean_time(loss, 16, seed=200)
        ratios[loss] = whole / parts16
        rows.append((f"{loss:.0%}", whole / 60.0, parts16 / 60.0, whole / parts16))
    return rows, ratios


def test_bench_ablation_loss():
    rows, ratios = _sweep()
    # Amplification must grow monotonically with loss and be large at
    # PlanetLab-like rates.
    ordered = [ratios[l] for l in LOSS_RATES]
    assert ordered == sorted(ordered)
    assert ratios[0.0] < 1.5          # no loss -> granularity ~neutral
    assert ratios[0.03] > 5.0         # heavy loss -> whole file unusable
    emit(
        "Ablation — per-Mb loss vs granularity benefit (100 Mb)",
        render_table(
            ("per-Mb loss", "whole (min)", "16 parts (min)", "whole/16 ratio"),
            rows,
        ),
    )
