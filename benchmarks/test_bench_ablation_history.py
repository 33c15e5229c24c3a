"""Ablation: ready-time estimator accuracy vs history depth.

The economic model plans with the broker's observed goodput EWMAs
(DESIGN.md §6.2).  This ablation measures the relative error of the
broker's transfer-time estimate for every SimpleClient after 0, 1 and 4
observation transfers.  A cold broker falls back to nominal access
rates, which cannot see loss amplification, sliver contention or the
per-part protocol overheads — so estimates must tighten as history
accumulates.  Probes and targets are 4-part transfers so retransmission
noise averages out within each measurement.
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import mbit

from benchmarks.conftest import emit

HISTORY_DEPTHS = (0, 1, 4)
PROBE_BITS = mbit(20)
TARGET_BITS = mbit(40)
SEEDS = (11, 22, 33, 44, 55)


def _mean_abs_rel_error(depth: int, seed: int) -> float:
    session = Session(ExperimentConfig(seed=seed, repetitions=1))

    def scenario(s):
        broker = s.broker
        errors = []
        for label in s.sc_labels():
            adv = s.client(label).advertisement()
            for k in range(depth):
                yield s.sim.process(
                    broker.transfers.send_file(
                        adv, f"h{k}-{label}", PROBE_BITS, n_parts=4
                    )
                )
            predicted = broker.estimate_transfer_seconds(
                broker.record(s.client(label).peer_id), TARGET_BITS
            )
            outcome = yield s.sim.process(
                broker.transfers.send_file(adv, f"t-{label}", TARGET_BITS, n_parts=4)
            )
            actual = outcome.total_duration
            errors.append(abs(predicted - actual) / actual)
        return sum(errors) / len(errors)

    return session.run(scenario)


def _sweep():
    rows = []
    errors = {}
    for depth in HISTORY_DEPTHS:
        es = [_mean_abs_rel_error(depth, seed) for seed in SEEDS]
        errors[depth] = sum(es) / len(es)
        rows.append((depth, errors[depth]))
    return rows, errors


def test_bench_ablation_history(benchmark):
    rows, errors = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # History must help: a warmed-up broker beats a cold start.
    assert errors[4] < errors[0]
    emit(
        "Ablation — ready-time estimate error vs history depth "
        "(mean |predicted-actual|/actual over SC1..SC8, 5 seeds)",
        render_table(("observed transfers", "mean relative error"), rows),
    )
