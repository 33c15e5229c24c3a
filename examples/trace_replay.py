#!/usr/bin/env python
"""Workload traces: identical offered load, different placement brains.

Generates a Poisson transfer workload once, saves it to JSON, then
replays the *same* trace against two fresh deployments — blind
round-robin and the economic model — so every cost difference is pure
placement quality.  The trace file round-trips through disk to show
the persistence format.

Run:  python examples/trace_replay.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.blind import RoundRobinSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.simnet.rng import RandomStreams
from repro.units import mbit
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import load_jobs, replay, save_jobs


CONFIG = ExperimentConfig(seed=2024)


def run_policy(name, selector, jobs):
    session = Session(CONFIG)

    def scenario(s):
        # History so informed selection has signal.
        for label in s.sc_labels():
            yield s.sim.process(
                s.broker.transfers.send_file(
                    s.client(label).advertisement(), f"probe-{label}", mbit(5)
                )
            )
        report = yield s.sim.process(replay(s, jobs, selector))
        return report

    return session.run(scenario)


def main() -> None:
    # The trace draws from the same seed tree as the sessions replaying
    # it, on a stream of its own.
    gen = WorkloadGenerator(
        RandomStreams(CONFIG.seed).get("workload/trace"),
        sizes_mb=(10.0, 20.0, 40.0),
        n_parts_choices=(2, 4),
        task_share=0.0,
    )
    jobs = list(gen.poisson(rate_per_s=1 / 40.0, horizon_s=480.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "workload.json"
        save_jobs(jobs, path)
        print(f"trace: {len(jobs)} transfer jobs over 8 simulated minutes "
              f"({path.stat().st_size} bytes on disk)")
        jobs = load_jobs(path)  # round-trip through the persistence format

    rows = []
    for name, selector in (
        ("blind round-robin", RoundRobinSelector()),
        ("economic", SchedulingBasedSelector(reserve=True)),
    ):
        report = run_policy(name, selector, jobs)
        rows.append(
            (
                name,
                report.completed,
                report.failed,
                report.mean_transfer_cost(),
            )
        )
    print()
    print(render_table(
        ("policy", "completed", "failed", "mean cost (s/Mb)"),
        rows,
        title="same trace, two placement policies",
    ))


if __name__ == "__main__":
    main()
