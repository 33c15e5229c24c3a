"""Ablation: data-evaluator weight profiles (DESIGN.md §6.3).

The paper evaluates the evaluator in *same priority* mode.  This
ablation measures, noise-free, how sharply each built-in weight profile
*separates* peers with a clean transfer record from peers that
accumulated cancellations during the deadline-bounded warmup:

    separation(profile) = mean utility(clean) - mean utility(cancelled)

Transfer-oriented weights concentrate mass on the file criteria, so
they must separate at least as sharply as the uniform (same-priority)
profile, while the task-oriented profile — blind to file outcomes —
must separate hardly at all.
"""

from __future__ import annotations

from repro.experiments import fig6_selection
from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.evaluator import DataEvaluatorSelector

from benchmarks.conftest import emit

PROFILES = ("same_priority", "transfer_oriented", "task_oriented", "message_oriented")
SEEDS = (2007, 41, 99)


def _separations(seed: int) -> dict:
    cfg = fig6_selection._config_with_slice(
        ExperimentConfig(seed=seed, repetitions=1)
    )
    session = Session(cfg)

    def scenario(s):
        yield s.sim.process(fig6_selection._warmup(s))
        now = s.sim.now
        clean, dirty = [], []
        for rec in s.broker.candidates():
            snap = rec.selection_snapshot(now)
            if snap.get("pct_transfers_cancelled_total", 0.0) > 0.0:
                dirty.append(snap)
            else:
                clean.append(snap)
        out = {}
        for profile in PROFILES:
            sel = DataEvaluatorSelector(profile)
            if not dirty or not clean:
                out[profile] = 0.0
                continue
            mean_clean = sum(sel.utility(sn) for sn in clean) / len(clean)
            mean_dirty = sum(sel.utility(sn) for sn in dirty) / len(dirty)
            out[profile] = mean_clean - mean_dirty
        return out

    return session.run(scenario)


def _sweep():
    acc = {p: 0.0 for p in PROFILES}
    for seed in SEEDS:
        seps = _separations(seed)
        for p in PROFILES:
            acc[p] += seps[p] / len(SEEDS)
    rows = [(p, acc[p]) for p in PROFILES]
    return rows, acc


def test_bench_ablation_weights():
    rows, seps = _sweep()
    # File-focused weights separate reliable from unreliable peers most
    # sharply; task-only weights cannot see transfer history at all.
    assert seps["transfer_oriented"] >= seps["same_priority"]
    assert seps["same_priority"] > seps["task_oriented"]
    assert seps["task_oriented"] <= 1e-9
    emit(
        "Ablation — evaluator weight profiles: utility separation of "
        "clean vs cancellation-tainted peers (mean over 3 seeds)",
        render_table(("profile", "separation"), rows),
    )
