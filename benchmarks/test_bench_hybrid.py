"""Ablation/extension: the hybrid selector vs its parents.

The hybrid (evaluator-screened economic) model must dominate both
parents when the economic favourite is *unreliable*: the evaluator
screen removes peers with rotten transfer records before the economic
ranking runs.  Measured on the Figure 6 scenario after warmup, with the
economically-attractive peer's record sabotaged by a deadline-failure
streak.
"""

from __future__ import annotations

from repro.experiments import fig6_selection
from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.base import SelectionContext, Workload
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.hybrid import HybridSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit

from benchmarks.conftest import emit

SEEDS = (2007, 41, 99)
MEASURE_BITS = mbit(60)
N_PARTS = 4


def _cost(selector_factory, seed: int) -> float:
    cfg = fig6_selection._config_with_slice(
        ExperimentConfig(seed=seed, repetitions=1)
    )
    session = Session(cfg)

    def scenario(s):
        sim = s.sim
        broker = s.broker
        yield sim.process(fig6_selection._warmup(s))
        # Sabotage: the peer the economic model would pick develops a
        # failure streak the goodput EWMA cannot see (cancelled
        # transfers recorded at the broker, e.g. by other clients).
        eco_probe = SchedulingBasedSelector(reserve=False)
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(transfer_bits=MEASURE_BITS, n_parts=N_PARTS),
            candidates=broker.candidates(),
        )
        favourite = eco_probe.select(ctx)
        for _ in range(4):
            favourite.interaction.record_file_attempt(
                sim.now, ok=False, cancelled=True
            )
        # Its live behaviour degrades to match the record: heavy
        # background load from the herd node.
        from repro.overlay.client import Client

        bg = Client(s.network, fig6_selection.BACKGROUND_SENDER, s.ids, name="bg")
        yield sim.process(bg.connect(broker.advertisement()))
        for k in range(3):
            sim.process(
                bg.transfers.send_file(
                    favourite.adv, f"bg-{k}", mbit(150), n_parts=2
                )
            )
        yield 5.0

        selector = selector_factory()
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(transfer_bits=MEASURE_BITS, n_parts=N_PARTS),
            candidates=broker.candidates(),
        )
        record = selector.select(ctx)
        outcome = yield sim.process(
            broker.transfers.send_file(
                record.adv, "measured", MEASURE_BITS, n_parts=N_PARTS
            )
        )
        return outcome.transmission_time / 60.0  # s/Mb

    return session.run(scenario)


def _sweep():
    factories = {
        "economic": lambda: SchedulingBasedSelector(reserve=False),
        "same_priority": lambda: DataEvaluatorSelector("same_priority"),
        "hybrid": lambda: HybridSelector(
            economic=SchedulingBasedSelector(reserve=False)
        ),
    }
    costs = {
        name: sum(_cost(f, s) for s in SEEDS) / len(SEEDS)
        for name, f in factories.items()
    }
    rows = [(name, cost) for name, cost in costs.items()]
    return rows, costs


def test_bench_hybrid():
    rows, costs = _sweep()
    # The screen must save the hybrid from the sabotaged favourite.
    assert costs["hybrid"] < costs["economic"]
    emit(
        "Extension — hybrid selector vs parents with an unreliable "
        "economic favourite (s per Mb, mean over 3 seeds)",
        render_table(("model", "cost (s/Mb)"), rows),
    )
