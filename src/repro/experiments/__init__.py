"""Per-figure experiment harnesses.

One module per table/figure of the paper's evaluation section:

========  ==========================================  ==========================
artifact  what it shows                               module
========  ==========================================  ==========================
Table 1   the 25-node PlanetLab slice                 :mod:`.table1_nodes`
Fig. 2    petition reception time per peer            :mod:`.fig2_petition`
Fig. 3    50 Mb transmission time per peer            :mod:`.fig3_fulltransfer`
Fig. 4    last-Mb completion time per peer            :mod:`.fig4_lastmb`
Fig. 5    whole vs 4 vs 16 parts (100 Mb)             :mod:`.fig5_granularity`
Fig. 6    three selection models x two granularities  :mod:`.fig6_selection`
Fig. 7    execution vs transmission & execution       :mod:`.fig7_execution`
========  ==========================================  ==========================

Extensions beyond the paper (flagged as such): :mod:`.scale` (the
stated future work — larger peer pools), :mod:`.churn` (selection
under peer churn with liveness filtering), :mod:`.resilience`
(selection policies crossed with :mod:`repro.faults` profiles) and
:mod:`.swarming` (fig5's granularity sweep with k concurrent sources
per selection model — :mod:`repro.swarm`).  The selection studies
share their selector factory, warmup probe, wave join and candidate
view through :mod:`.steps`.
"""

from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.runner import average_rows, run_cells, run_repetitions
from repro.experiments import (
    churn,
    resilience,
    fig2_petition,
    fig3_fulltransfer,
    fig4_lastmb,
    fig5_granularity,
    fig6_selection,
    fig7_execution,
    scale,
    swarming,
    table1_nodes,
)

__all__ = [
    "ExperimentConfig",
    "Session",
    "run_cells",
    "run_repetitions",
    "average_rows",
    "table1_nodes",
    "fig2_petition",
    "fig3_fulltransfer",
    "fig4_lastmb",
    "fig5_granularity",
    "fig6_selection",
    "fig7_execution",
    "scale",
    "churn",
    "resilience",
    "swarming",
]
