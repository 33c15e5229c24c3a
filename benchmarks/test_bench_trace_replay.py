"""Benchmark: open-loop trace replay under the selection policies.

A single Poisson workload trace (generated once, fixed) is replayed
against fresh sessions under blind round-robin and the two informed
models.  Because the offered load is *identical* across policies, the
mean transfer cost differences are pure placement quality — the
open-loop complement of the paper's closed-loop Figure 6 measurement.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.blind import RoundRobinSelector
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import replay

from benchmarks.conftest import emit

SEEDS = (2007, 41, 99)


def _make_trace():
    gen = WorkloadGenerator(
        np.random.default_rng(7),
        sizes_mb=(10.0, 20.0, 30.0),
        n_parts_choices=(2, 4),
        task_share=0.0,
    )
    return list(gen.poisson(rate_per_s=1 / 45.0, horizon_s=540.0))


def _policy_cost(selector_factory, seed: int, jobs) -> float:
    session = Session(ExperimentConfig(seed=seed, repetitions=1))

    def scenario(s):
        # History so informed models have signal.
        for label in s.sc_labels():
            yield s.sim.process(
                s.broker.transfers.send_file(
                    s.client(label).advertisement(), f"w-{label}", mbit(5)
                )
            )
        report = yield s.sim.process(replay(s, jobs, selector_factory()))
        return report.mean_transfer_cost()

    return session.run(scenario)


def _sweep():
    jobs = _make_trace()
    factories = {
        "blind": RoundRobinSelector,
        "economic": lambda: SchedulingBasedSelector(reserve=True),
        "same_priority": lambda: DataEvaluatorSelector("same_priority"),
    }
    costs = {
        name: sum(_policy_cost(f, s, jobs) for s in SEEDS) / len(SEEDS)
        for name, f in factories.items()
    }
    rows = [(name, len(jobs), cost) for name, cost in costs.items()]
    return rows, costs, len(jobs)


def test_bench_trace_replay():
    rows, costs, n_jobs = _sweep()
    assert n_jobs >= 6  # the trace actually offers load
    assert costs["economic"] < costs["blind"]
    emit(
        "Trace replay — identical offered load under three policies "
        "(mean s/Mb over 3 seeds)",
        render_table(("policy", "jobs", "cost (s/Mb)"), rows),
    )
