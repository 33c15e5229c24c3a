"""Benchmark: Figure 6 shape robustness across a seed panel.

The Figure 6 orderings are claims about a stochastic system; this
benchmark re-runs the experiment over a panel of independent master
seeds and asserts the pass rate, making the "stable across seeds"
statement in EXPERIMENTS.md executable.  A small panel keeps the run
fast; `repro.analysis.sensitivity.DEFAULT_SEED_PANEL` holds the full
ten-seed panel used for the documented claim.
"""

from __future__ import annotations

from repro.analysis.sensitivity import run_seed_panel
from repro.experiments import fig6_selection
from repro.experiments.report import render_table

from benchmarks.conftest import emit

PANEL = (2007, 41, 99, 7, 123)


def _ordering_holds(config) -> bool:
    result = fig6_selection.run(config)
    e4 = result.cost("economic", 4)
    s4 = result.cost("same_priority", 4)
    q4 = result.cost("quick_peer", 4)
    return e4 < s4 < q4 and result.spread(16) < result.spread(4)


def test_bench_fig6_seed_panel():
    result = run_seed_panel(
        _ordering_holds, seeds=PANEL, repetitions=5, name="fig6-shape"
    )
    assert result.pass_rate >= 0.8  # at most one unlucky seed tolerated
    rows = [(seed, "pass" if ok else "FAIL") for seed, ok in result.outcomes.items()]
    emit(
        f"Robustness — Figure 6 shape across seeds: {result.summary()}",
        render_table(("seed", "outcome"), rows),
    )
