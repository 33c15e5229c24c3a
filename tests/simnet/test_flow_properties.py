"""Property-based and differential tests for the incremental
:class:`~repro.simnet.transport.FlowScheduler`.

Randomized flow arrival/outage schedules (seeded stdlib ``random`` —
no extra dependencies) drive the scheduler through hundreds of
scenarios per property and check the invariants it advertises:

* bits conserved — a flow's delivered bits plus remaining bits equal
  its size at every scheduling event;
* remaining bits never go negative (beyond float dust);
* the rates of the flows sharing one access link never sum past that
  link's sampled capacity;
* every started flow eventually completes, even across total-capacity
  outage windows.

The differential suite replays the same schedules through the old
global-reconcile scheduler (``reference_flows.ReferenceFlowScheduler``)
and asserts completion times agree to within a microsecond, and the
determinism suite asserts a seeded large-pool scale run is
byte-for-byte repeatable.

All properties use pinned load shares (``load_min_share ==
load_max_share``), i.e. constant link capacity: that is the regime in
which the incremental scheduler is *exactly* equivalent to a global
reconcile (rates depend only on per-link flow counts).  Time-varying
capacity is exercised through the explicit outage gates, where only
the invariants — not equivalence — are asserted, because the
incremental scheduler lets untouched flows run at a stale rate for up
to one tick (see docs/API.md).
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional

import pytest

from repro.experiments import fig3_fulltransfer, fig5_granularity, scale
from repro.experiments.scenario import ExperimentConfig, Session
from repro.obs.export import write_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import FlowScheduler, Network
from repro.units import mbit

from tests.conftest import gate_capacity

from .reference_flows import ReferenceFlowScheduler

N_SCHEDULES = 200
N_HOSTS = 4
TICK = 5.0

#: Bits of float dust tolerated by the invariants (sizes are >= 1 Mb).
_BITS_TOL = 1.0


def _make_topology(rng: random.Random) -> Topology:
    """Hosts with heterogeneous but *pinned* (constant) capacities."""
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    for i in range(N_HOSTS):
        topo.add_node(
            NodeSpec(
                hostname=f"h{i}.example",
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


def _random_schedule(rng: random.Random) -> List[tuple]:
    """(arrival_s, src_idx, dst_idx, size_bits) rows, time-sorted."""
    rows = []
    for _ in range(rng.randint(2, 8)):
        t = rng.uniform(0.0, 60.0)
        src = rng.randrange(N_HOSTS)
        dst = rng.randrange(N_HOSTS - 1)
        if dst >= src:
            dst += 1
        size = mbit(rng.choice([1.0, 2.0, 5.0, 10.0, 25.0]))
        rows.append((t, src, dst, size))
    rows.sort()
    return rows


def _apply_outages(rng: random.Random, hosts) -> None:
    """Collapse 1-2 random hosts' access links over random windows."""
    for _ in range(rng.randint(1, 2)):
        h = hosts[rng.randrange(len(hosts))]
        start = rng.uniform(0.0, 50.0)
        end = start + rng.uniform(5.0, 30.0)
        gate_capacity(h, start, end)


def _driver(sim, scheduler, hosts, schedule, dones):
    for t, src, dst, size in schedule:
        if t > sim.now:
            yield t - sim.now
        dones.append(scheduler.start_flow(hosts[src], hosts[dst], size))


def _run_schedule(seed: int, scheduler_cls, outages: bool):
    """Build a fresh world, run one random schedule to completion."""
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, _make_topology(rng), streams=RandomStreams(seed=seed))
    hosts = [net.host(f"h{i}.example") for i in range(N_HOSTS)]
    scheduler = scheduler_cls(sim, tick=TICK)
    schedule = _random_schedule(rng)
    if outages:
        _apply_outages(rng, hosts)
    dones: List = []
    sim.process(_driver(sim, scheduler, hosts, schedule, dones))
    sim.run()
    return sim, scheduler, hosts, schedule, dones


class CheckedScheduler(FlowScheduler):
    """FlowScheduler with invariants asserted on every internal event.

    ``_advance`` is the single mutation point for flow progress and
    ``_after_event`` runs at the end of every scheduling event — the
    two seams cover every state transition the scheduler makes.
    """

    check_capacity = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delivered: Dict[object, float] = {}

    def _advance(self, f, now: float) -> None:
        dt = now - f.last_update
        if dt > 0.0 and f.rate > 0.0:
            self.delivered[f] = self.delivered.get(f, 0.0) + f.rate * dt
        super()._advance(f, now)
        # No negative remaining (beyond float dust near completion).
        assert f.remaining >= -_BITS_TOL
        # Bits conserved: progress + remaining == size.
        got = self.delivered.get(f, 0.0)
        assert abs(got + max(f.remaining, 0.0) - f.size_bits) <= _BITS_TOL

    def _after_event(self, now: float) -> None:
        if self.check_capacity:
            hosts: Dict[object, None] = {}
            for f in self._flows:
                hosts[f.src] = None
                hosts[f.dst] = None
            for h in hosts:
                up = sum(g.rate for g in h._up_set)
                down = sum(g.rate for g in h._down_set)
                assert up <= h.up_capacity_at(now) * (1.0 + 1e-9) + 1e-6
                assert down <= h.down_capacity_at(now) * (1.0 + 1e-9) + 1e-6
        super()._after_event(now)


class UncheckedCapacity(CheckedScheduler):
    """Conservation checks only — for outage schedules, where flows
    untouched since a capacity drop legitimately keep a stale rate
    until the next tick."""

    check_capacity = False


class TestFlowInvariants:
    def test_conservation_and_completion_without_outages(self):
        """Bits conserved, remaining non-negative, capacity bound holds
        and every flow finishes — 200 random concurrent schedules."""
        for seed in range(N_SCHEDULES):
            sim, sched, _, schedule, dones = _run_schedule(
                seed, CheckedScheduler, outages=False
            )
            assert len(dones) == len(schedule)
            for done in dones:
                assert done.triggered and done.ok, f"seed {seed}"
            for f, got in sched.delivered.items():
                assert abs(got - f.size_bits) <= _BITS_TOL, f"seed {seed}"
            assert sched.active_flows == 0

    def test_conservation_and_completion_with_outages(self):
        """Same invariants through total-capacity outage windows; every
        flow still eventually completes once capacity returns."""
        for seed in range(N_SCHEDULES, 2 * N_SCHEDULES):
            sim, sched, _, schedule, dones = _run_schedule(
                seed, UncheckedCapacity, outages=True
            )
            assert len(dones) == len(schedule)
            for done in dones:
                assert done.triggered and done.ok, f"seed {seed}"
            for f, got in sched.delivered.items():
                assert abs(got - f.size_bits) <= _BITS_TOL, f"seed {seed}"
            assert sched.active_flows == 0

    def test_link_capacity_bound_under_heavy_sharing(self):
        """Many flows forced through one uplink: the summed rates must
        track the fair-share bound, not multiply past capacity."""
        for seed in range(50):
            rng = random.Random(10_000 + seed)
            sim = Simulator()
            net = Network(
                sim, _make_topology(rng), streams=RandomStreams(seed=seed)
            )
            hosts = [net.host(f"h{i}.example") for i in range(N_HOSTS)]
            sched = CheckedScheduler(sim, tick=TICK)
            # All flows share h0's uplink (the worst-case hot link).
            schedule = [
                (rng.uniform(0.0, 20.0), 0, rng.randint(1, N_HOSTS - 1),
                 mbit(rng.choice([1.0, 5.0, 10.0])))
                for _ in range(rng.randint(4, 10))
            ]
            schedule.sort()
            dones: List = []
            sim.process(_driver(sim, sched, hosts, schedule, dones))
            sim.run()
            for done in dones:
                assert done.triggered and done.ok, f"seed {seed}"


class TestDifferentialEquivalence:
    """The incremental scheduler must complete flows at the same times
    as the old global-reconcile implementation."""

    @staticmethod
    def _completion_times(scheduler_cls, seed: int) -> List[Optional[float]]:
        rng = random.Random(seed)
        sim = Simulator()
        net = Network(
            sim, _make_topology(rng), streams=RandomStreams(seed=seed)
        )
        hosts = [net.host(f"h{i}.example") for i in range(N_HOSTS)]
        scheduler = scheduler_cls(sim, tick=TICK)
        schedule = _random_schedule(rng)
        times: List[Optional[float]] = [None] * len(schedule)

        def driver():
            for i, (t, src, dst, size) in enumerate(schedule):
                if t > sim.now:
                    yield t - sim.now
                done = scheduler.start_flow(hosts[src], hosts[dst], size)
                done.callbacks.append(
                    lambda ev, i=i: times.__setitem__(i, sim.now)
                )

        sim.process(driver())
        sim.run()
        return times

    def test_randomized_schedules_identical_completions(self):
        for seed in range(N_SCHEDULES):
            new = self._completion_times(FlowScheduler, seed)
            old = self._completion_times(ReferenceFlowScheduler, seed)
            assert len(new) == len(old)
            for i, (a, b) in enumerate(zip(new, old)):
                assert a is not None and b is not None, f"seed {seed} flow {i}"
                assert abs(a - b) <= 1e-6, (
                    f"seed {seed} flow {i}: incremental={a!r} global={b!r}"
                )

    @pytest.mark.parametrize("experiment", [fig3_fulltransfer, fig5_granularity])
    def test_experiment_configs_equivalent(self, experiment, monkeypatch):
        """fig3/fig5 under both schedulers: same per-peer means."""
        config = ExperimentConfig(repetitions=1)
        base = experiment.run(config).summaries
        monkeypatch.setattr(
            "repro.simnet.transport.FlowScheduler", ReferenceFlowScheduler
        )
        ref = experiment.run(config).summaries
        assert set(base) == set(ref)
        for key in base:
            assert base[key].mean == pytest.approx(
                ref[key].mean, abs=1e-6
            ), key


class TestDeterminism:
    """Same seeded scale scenario twice: byte-identical metrics JSON
    and identical EventTrace contents (guards heap/set iteration
    order)."""

    POOL = 40  # full slice + 16 synthetic slivers

    def _one_run(self, path):
        config = ExperimentConfig(
            seed=2024,
            repetitions=1,
            include_full_slice=True,
            synthetic_nodes=self.POOL - 24,
            trace=True,
            trace_capacity=512,
            flow_tick=30.0,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            session = Session(config)
            costs = session.run(
                lambda s: scale._large_scenario(
                    s, pool=self.POOL, n_jobs=4, concurrency=8
                )
            )
        write_metrics(registry, path)
        return costs, session.tracer.events

    def test_metrics_and_trace_repeatable(self, tmp_path):
        costs_a, trace_a = self._one_run(tmp_path / "a.json")
        costs_b, trace_b = self._one_run(tmp_path / "b.json")
        assert costs_a == costs_b
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()
        # Parse once to give a readable diff if the bytes ever diverge.
        assert json.loads((tmp_path / "a.json").read_text()) == json.loads(
            (tmp_path / "b.json").read_text()
        )
        assert trace_a == trace_b
