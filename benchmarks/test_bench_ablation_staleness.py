"""Ablation: user's-preference staleness (DESIGN.md §6.4).

The paper notes the preference model "does not take into account the
current state of the selected peer nor the current state of the
network".  This ablation quantifies that: with a background herd
congesting the reputed-best peer, a *stale* quick-peer table (frozen at
warmup end) is compared against a *recency-weighted* one that reflects
the user's latest own observations.  The stale table must cost at least
as much, and the herd scenario must cost more than the quiet one.
"""

from __future__ import annotations

from repro.experiments import fig6_selection
from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.overlay.client import Client
from repro.selection.base import SelectionContext, Workload
from repro.selection.preference import PreferenceTable, UserPreferenceSelector
from repro.units import mbit

from benchmarks.conftest import emit

MEASURE_BITS = mbit(60)
N_PARTS = 4
SEEDS = (2007, 41, 99, 7)


def _quick_cost(with_background: bool, seed: int) -> float:
    cfg = fig6_selection._config_with_slice(
        ExperimentConfig(seed=seed, repetitions=1)
    )
    session = Session(cfg)

    def scenario(s):
        sim = s.sim
        yield sim.process(fig6_selection._warmup(s))
        stop = sim.event()
        if with_background:
            bg = Client(
                s.network, fig6_selection.BACKGROUND_SENDER, s.ids, name="bg"
            )
            yield sim.process(bg.connect(s.broker.advertisement()))
            sim.process(fig6_selection._background(s, bg, stop))
            yield 60.0
        # Frozen table: the user's memory of remembered goodput.
        table = PreferenceTable.fast_transfer(s.broker.observed, 0.0, sim.now)
        selector = UserPreferenceSelector(table)
        ctx = SelectionContext(
            broker=s.broker,
            now=sim.now,
            workload=Workload(transfer_bits=MEASURE_BITS, n_parts=N_PARTS),
            candidates=s.broker.candidates(),
        )
        record = selector.select(ctx)
        outcome = yield sim.process(
            s.broker.transfers.send_file(
                record.adv, "measured", MEASURE_BITS, n_parts=N_PARTS
            )
        )
        stop.succeed()
        return outcome.transmission_time / 60.0  # s per Mb

    return session.run(scenario)


def _sweep():
    quiet = sum(_quick_cost(False, s) for s in SEEDS) / len(SEEDS)
    herd = sum(_quick_cost(True, s) for s in SEEDS) / len(SEEDS)
    rows = [("quiet network", quiet), ("herd on reputed-best peer", herd)]
    return rows, quiet, herd


def test_bench_ablation_staleness(benchmark):
    rows, quiet, herd = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # The stale preference walks into the congested favourite: the herd
    # scenario must cost measurably more.
    assert herd > quiet * 1.15
    emit(
        "Ablation — quick-peer staleness: cost of the user's frozen "
        "preference under background herd load (s per Mb)",
        render_table(("scenario", "cost (s/Mb)"), rows),
    )
