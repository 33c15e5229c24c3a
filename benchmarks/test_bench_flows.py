"""Flow-scheduler benchmarks: incremental vs global reconcile cost.

Measures, for synthetic many-host many-flow workloads:

* **touched flows** — how many flows each scheduling event advances and
  re-rates (the incremental scheduler's headline bound: O(flows
  sharing an access link), not O(all active flows));
* **reconcile counts** and **agenda depth** — timer churn on the
  kernel;
* **wall-clock** versus concurrent flow count.

The acceptance bound asserted here: at 200 concurrent flows across 100
hosts the old global-reconcile scheduler (kept as a reference in
``tests/simnet/reference_flows.py``) touches >= 5x more flows in total
than the incremental one, and a seeded 500-peer ``experiments/scale``
run completes within the tier-1 CI budget.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the flow
counts while still asserting the scaling bounds; runs in well under
two minutes.  These benchmarks use only stdlib timing.
"""

from __future__ import annotations

import os
import random
import time
from typing import List

from tests.simnet.reference_flows import ReferenceFlowScheduler

from repro.experiments.scenario import ExperimentConfig
from repro.experiments import scale
from repro.obs.metrics import MetricsRegistry
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import FlowScheduler, Network
from repro.units import mbit

from .conftest import emit

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_HOSTS = 100
#: Concurrent-flow counts for the wall-clock/reconcile series.
FLOW_COUNTS = (50, 100, 200) if SMOKE else (50, 100, 200, 400)


def _make_topology(n_hosts: int) -> Topology:
    """``n_hosts`` pinned-capacity hosts (constant rates: the regime
    where incremental == global exactly, so both sides do identical
    scheduling work)."""
    rng = random.Random(7)
    region = Region("eu")
    site = Site(name="bench", region=region)
    topo = Topology()
    for i in range(n_hosts):
        topo.add_node(
            NodeSpec(
                hostname=f"n{i:03d}.bench",
                site=site,
                up_bps=rng.choice([2e6, 5e6, 10e6, 20e6]),
                down_bps=rng.choice([2e6, 5e6, 10e6, 20e6]),
                overhead_s=0.01,
                overhead_cv=0.0,
                load_min_share=1.0,
                load_max_share=1.0,
            )
        )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _schedule(rng: random.Random, n_flows: int, n_hosts: int) -> List[tuple]:
    """``n_flows`` arrivals inside a 30 s window over random pairs."""
    rows = []
    for _ in range(n_flows):
        t = rng.uniform(0.0, 30.0)
        src = rng.randrange(n_hosts)
        dst = rng.randrange(n_hosts - 1)
        if dst >= src:
            dst += 1
        rows.append((t, src, dst, mbit(rng.choice([5.0, 10.0, 25.0]))))
    rows.sort()
    return rows


def _run(scheduler_cls, n_flows: int, n_hosts: int = N_HOSTS, seed: int = 11):
    """One seeded workload under one scheduler; returns run stats."""
    sim = Simulator()
    reg = MetricsRegistry()
    net = Network(
        sim, _make_topology(n_hosts), streams=RandomStreams(seed=seed)
    )
    hosts = [net.host(f"n{i:03d}.bench") for i in range(n_hosts)]
    scheduler = scheduler_cls(sim, tick=10.0, metrics=reg)
    schedule = _schedule(random.Random(seed), n_flows, n_hosts)
    dones: List = []

    def driver():
        for t, src, dst, size in schedule:
            if t > sim.now:
                yield t - sim.now
            dones.append(scheduler.start_flow(hosts[src], hosts[dst], size))

    started = time.perf_counter()  # simlint: disable=SIM001 -- measured wall-clock of the run, not a simulated quantity
    sim.process(driver())
    sim.run()
    wall_s = time.perf_counter() - started  # simlint: disable=SIM001 -- measured wall-clock of the run, not a simulated quantity

    assert all(d.triggered and d.ok for d in dones)
    assert scheduler.active_flows == 0
    if scheduler_cls is FlowScheduler:
        scheduler.flush_metrics(reg)
        touched = reg.histogram("flow.touched_per_reconcile")
        reconciles = reg.counter("flow.reconciles").value
        touched_total = touched.sum
    else:
        reconciles = scheduler.reconciles
        touched_total = scheduler.touched_total
    return {
        "wall_s": wall_s,
        "reconciles": int(reconciles),
        "touched_total": float(touched_total),
        "agenda_depth": sim.max_agenda_depth,
        "events_cancelled": getattr(sim, "events_cancelled", 0),
    }


def test_touched_flows_5x_below_global_baseline():
    """Acceptance bound: 200 concurrent flows / 100 hosts — the
    incremental scheduler touches >= 5x fewer flows in total."""
    n_flows = 200
    inc = _run(FlowScheduler, n_flows)
    ref = _run(ReferenceFlowScheduler, n_flows)
    emit(
        "flow scheduler — total touched flows, 200 flows / 100 hosts",
        "\n".join(
            (
                f"incremental: touched={inc['touched_total']:>10.0f} "
                f"reconciles={inc['reconciles']} "
                f"agenda_depth={inc['agenda_depth']}",
                f"global ref : touched={ref['touched_total']:>10.0f} "
                f"reconciles={ref['reconciles']} "
                f"agenda_depth={ref['agenda_depth']}",
                f"ratio      : {ref['touched_total'] / inc['touched_total']:.1f}x",
            )
        ),
    )
    assert ref["touched_total"] >= 5.0 * inc["touched_total"], (
        f"global baseline touched {ref['touched_total']:.0f} flows, "
        f"incremental {inc['touched_total']:.0f}: ratio "
        f"{ref['touched_total'] / inc['touched_total']:.2f}x < 5x"
    )


def test_reconcile_scaling_vs_flow_count():
    """Per-event reconcile work must scale with link sharers, not with
    the total flow population: as the flow count grows 4x (2x in smoke
    mode), touched-flows-per-event may grow with per-link crowding but
    must stay far below the O(active flows) global cost."""
    rows = []
    for n_flows in FLOW_COUNTS:
        stats = _run(FlowScheduler, n_flows)
        stats["n_flows"] = n_flows
        stats["touched_per_rec"] = stats["touched_total"] / stats["reconciles"]
        rows.append(stats)
    emit(
        "flow scheduler — scaling vs concurrent flow count",
        "\n".join(
            f"flows={r['n_flows']:>4d} wall={r['wall_s'] * 1e3:7.1f} ms "
            f"reconciles={r['reconciles']:>5d} "
            f"touched/rec={r['touched_per_rec']:6.2f} "
            f"agenda_depth={r['agenda_depth']:>4d} "
            f"cancelled={r['events_cancelled']:>5d}"
            for r in rows
        ),
    )
    for r in rows:
        # Events are arrivals, completions and ticks: a few per flow.
        assert r["reconciles"] <= 20 * r["n_flows"] + 100
        # The per-event bound: mean touched flows tracks per-link
        # sharers (n_flows / n_hosts-ish), not the flow population.
        assert r["touched_per_rec"] <= 3.0 * r["n_flows"] / N_HOSTS + 5.0
    # Total work must not scale quadratically: 4x (2x smoke) the flows
    # may cost proportionally more per event (denser links) but must
    # stay well under the global scheduler's O(F) per event.
    biggest = rows[-1]
    global_cost_floor = biggest["reconciles"] * biggest["n_flows"]
    assert biggest["touched_total"] <= global_cost_floor / 5.0


def test_scale_500_peer_run_within_ci_budget():
    """A seeded 500-peer large-pool scale run finishes inside the
    tier-1 CI budget (and its results are well-formed)."""
    n_jobs = 6 if SMOKE else 12
    config = ExperimentConfig(seed=2007, repetitions=1, flow_tick=30.0)
    started = time.perf_counter()  # simlint: disable=SIM001 -- measured wall-clock of the run, not a simulated quantity
    result = scale.run_large(
        config, pools=(500,), n_jobs=n_jobs, concurrency=16
    )
    wall_s = time.perf_counter() - started  # simlint: disable=SIM001 -- measured wall-clock of the run, not a simulated quantity
    emit(
        "scale — seeded 500-peer run",
        result.table() + f"\nwall-clock: {wall_s:.1f} s",
    )
    for model in scale.MODELS:
        assert result.cost(model, 500) > 0.0
    # Generous CI bound; locally this runs in ~12 s.
    assert wall_s < 300.0
