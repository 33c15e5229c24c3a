"""The benchmark's workloads: which public experiment entry points run,
at what size, and what their outputs must satisfy.

A workload is a tuple of :class:`Artifact` s.  Each artifact runs one
public experiment entry point (``repro.experiments.*.run*``) and
returns its result object; the rendered ``result.table()`` is what the
result digest hashes.  ``check`` returns the artifact's
:class:`Criterion` list.  The builders take the ``ExperimentConfig``
and sizes as arguments, so tests can pass tiny configs; :data:`SIZES`
holds the sizes the benchmark measures.

Sizes keep one iteration at a few host seconds and keep the work
nearly independent of the seed: the benchmark is compared across ten
seeds, and a workload whose simulated duration has a heavy tail would
measure the seed, not the code.  ``scale.run_large`` is such a
workload (its 200 Mb whole-file jobs retry on lossy peers: 66k to
1.3M kernel events across seeds 1-10 at 200 peers), so the
keepalive-broker-at-scale load comes from the fixed-window baseline
cell of ``scale.run_federated`` instead.

Criteria come from DESIGN.md §5.  Most were calibrated at seed 2007
(``tests/experiments/test_figures.py`` asserts them there) and fail on
many other seeds; those are reported as met or not.  The ``enforced``
ones held on seeds 1-20, 2007 and 2011, and hold on every seed in
:data:`INPUT_SEEDS` by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments import (
    ExperimentConfig,
    fig2_petition,
    fig3_fulltransfer,
    fig4_lastmb,
    fig6_selection,
    fig7_execution,
    resilience,
    scale,
    swarming,
)
from repro.recovery.config import RecoveryConfig

__all__ = [
    "Artifact", "CALIBRATION_SEED", "Criterion", "INPUT_SEEDS", "NAMES",
    "SIZES", "build", "calibration_error", "federated", "fig2_log_err",
    "inputs", "paper", "resilience_swarm",
]


class Criterion(NamedTuple):
    """One output property; ``enforced`` ones fail the run when unmet."""

    text: str
    ok: bool
    enforced: bool = True


@dataclass(frozen=True)
class Artifact:
    """One experiment entry point call inside a workload."""

    name: str
    run: Callable[[], Any]
    check: Optional[Callable[[Any], List[Criterion]]] = None


# -- paper -------------------------------------------------------------------

def fig2_log_err(result) -> float:
    """Mean |ln(measured / published)| over Fig. 2's peers."""
    errs = [
        abs(math.log(s.mean / result.targets[label]))
        for label, s in result.summaries.items()
    ]
    return sum(errs) / len(errs)


#: Largest accepted ``fig2_log_err`` (0.16 is the largest seen on
#: seeds 1-20; 0.089 at seed 2007).
FIG2_LOG_ERR_MAX = 0.25

#: The seed the paper's figures are calibrated at (DESIGN.md §5).
CALIBRATION_SEED = 2007


def calibration_error() -> float:
    """``fig2_log_err`` of Fig. 2 at :data:`CALIBRATION_SEED` and the
    paper's five repetitions: how far the program is from the paper,
    independent of the benchmark's input draw (one input's error moves
    from 0.06 to 0.16 with the seed)."""
    config = ExperimentConfig(seed=CALIBRATION_SEED, repetitions=5)
    return fig2_log_err(fig2_petition.run(config))


def _check_fig2(r) -> List[Criterion]:
    m = {label: s.mean for label, s in r.summaries.items()}
    return [
        Criterion("fig2: SC7 is the slowest peer", r.slowest_peer() == "SC7"),
        Criterion("fig2: SC7 > SC1 > SC5 > SC3",
                  m["SC7"] > m["SC1"] > m["SC5"] > m["SC3"]),
        Criterion("fig2: SC2, SC4, SC8 below SC6",
                  max(m["SC2"], m["SC4"], m["SC8"]) < m["SC6"]),
        Criterion(f"fig2: log error <= {FIG2_LOG_ERR_MAX}",
                  fig2_log_err(r) <= FIG2_LOG_ERR_MAX),
        Criterion("fig2: every peer within 25% (or 0.05 s) of the paper",
                  all(abs(v - r.targets[p]) <= max(0.25 * r.targets[p], 0.05)
                      for p, v in m.items()), enforced=False),
    ]


def _check_fig3(r) -> List[Criterion]:
    m = {label: s.mean for label, s in r.summaries.items()}
    others = [v for label, v in m.items() if label != "SC7"]
    return [
        Criterion("fig3: every transfer completed", min(m.values()) > 0),
        Criterion("fig3: SC7 is the slowest peer", r.slowest_peer() == "SC7",
                  enforced=False),
        Criterion("fig3: SC7 >= 1.5x the next peer",
                  m["SC7"] > 1.5 * max(others), enforced=False),
    ]


def _check_fig4(r) -> List[Criterion]:
    m = {label: s.mean for label, s in r.summaries.items()}
    return [
        Criterion("fig4: SC7 2-4x slower than the others",
                  2.0 <= r.straggler_ratio() <= 4.0),
        Criterion("fig4: SC7 is the maximum", max(m, key=m.get) == "SC7",
                  enforced=False),
    ]


def _check_fig6(r) -> List[Criterion]:
    models = fig6_selection.MODELS
    e, s, q = (r.cost(m, 4) for m in ("economic", "same_priority", "quick_peer"))
    return [
        Criterion("fig6: economic is the cheapest model at 4 and 16 parts",
                  all(min(models, key=lambda m: r.cost(m, g)) == "economic"
                      for g in fig6_selection.GRANULARITIES)),
        Criterion("fig6: economic < same_priority < quick_peer at 4 parts",
                  e < s < q, enforced=False),
        Criterion("fig6: model spread shrinks to < 2x at 16 parts",
                  r.spread(16) < r.spread(4) and r.spread(16) < 2.0,
                  enforced=False),
        Criterion("fig6: 16-part cost <= 1.15x 4-part cost for every model",
                  all(r.cost(m, 16) <= 1.15 * r.cost(m, 4) for m in models),
                  enforced=False),
    ]


def _check_fig7(r) -> List[Criterion]:
    peers = r.peers()
    shares = {p: r.transfer_share(p) for p in peers}
    return [
        Criterion("fig7: transmission+execution >= execution for every peer",
                  all(r.both_minutes(p) >= r.exec_minutes(p) for p in peers)),
        Criterion("fig7: totals within 1-40 minutes",
                  all(1.0 <= r.both_minutes(p) <= 40.0 for p in peers)),
        Criterion("fig7: SC7 has the largest transmission share, >= 40%",
                  shares["SC7"] == max(shares.values()) and shares["SC7"] >= 0.40,
                  enforced=False),
        Criterion("fig7: SC2, SC4, SC8 are execution-dominated",
                  all(shares[p] < 0.5 for p in ("SC2", "SC4", "SC8")),
                  enforced=False),
    ]


def _check_scale(r) -> List[Criterion]:
    return [
        Criterion("scale: every (model, pool) cell has a cost",
                  all(r.cost(m, p) > 0 for m in scale.MODELS for p in r.pools)),
        Criterion("scale: economic cheaper than blind at every pool",
                  all(r.cost("economic", p) < r.cost("blind", p) for p in r.pools),
                  enforced=False),
    ]


def paper(config: ExperimentConfig) -> Tuple[Artifact, ...]:
    """Fig. 2-4, 6, 7 and the 8/16/24-peer scale study.

    Fig. 5 is left out: at five repetitions its whole-file 100 Mb
    transfer exhausts its 50 attempts on most seeds (``TransferAborted``).
    """
    runs = (
        ("fig2", fig2_petition.run, _check_fig2),
        ("fig3", fig3_fulltransfer.run, _check_fig3),
        ("fig4", fig4_lastmb.run, _check_fig4),
        ("fig6", fig6_selection.run, _check_fig6),
        ("fig7", fig7_execution.run, _check_fig7),
        ("scale", scale.run, _check_scale),
    )
    return tuple(
        Artifact(name, lambda fn=fn: fn(config), check)
        for name, fn, check in runs
    )


# -- control plane -----------------------------------------------------------

def _check_federated(r) -> List[Criterion]:
    kill = [c for c in r.cells if c.startswith("killbroker/")]
    return [
        Criterion("federated: broker load sublinear (< 1x baseline per peer)",
                  r.sublinearity() < 1.0),
        Criterion("federated: kill-broker discovery success >= 0.95",
                  all(r.discovery_success(c) >= 0.95 for c in kill)),
        Criterion("federated: kill-broker rehome rate >= 0.95",
                  all(r.value(c, "rehome_rate") >= 0.95 for c in kill)),
    ]


def federated(
    config: ExperimentConfig,
    pools: Tuple[int, ...],
    baseline_pool: int,
) -> Tuple[Artifact, ...]:
    """``scale.run_federated``: a single-broker keepalive baseline cell,
    a 3-broker SWIM cell per pool, and a kill-one-broker cell."""
    return (
        Artifact(
            "scale-federated",
            lambda: scale.run_federated(
                config, pools=pools, baseline_pool=baseline_pool
            ),
            _check_federated,
        ),
    )


# -- faults, recovery, swarming ----------------------------------------------

def _check_resilience(r) -> List[Criterion]:
    cells = [(p, q) for p in r.profiles for q in resilience.POLICIES]
    return [
        Criterion(
            "resilience: offered = completed + aborted + censored in every cell",
            all(math.isclose(
                r.offered(p, q),
                r.summaries[f"{p}/{q}/completed"].mean
                + r.aborted(p, q) + r.censored(p, q),
            ) for p, q in cells),
        ),
    ]


def _check_swarming(r) -> List[Criterion]:
    # One download per (k, granularity, model) cell; k=1 runs one shared
    # model because the origin is its only source.
    downloads = len(swarming.GRANULARITIES) * sum(
        1 if k == 1 else len(swarming.MODELS) for k in swarming.SOURCES_K
    )
    k_max = max(swarming.SOURCES_K)
    return [
        Criterion(
            f"swarming: completed + aborted + censored = {downloads} per testbed",
            all(math.isclose(
                sum(r.summaries[f"{t}/{o}"].mean
                    for o in ("completed", "aborted", "censored")),
                downloads,
            ) for t in swarming.TESTBEDS),
        ),
        Criterion(
            f"swarming: k={k_max} beats k=1 at 16 parts for every model",
            all(r.completion("synthetic", m, k_max, 16)
                < r.completion("synthetic", m, 1, 16) for m in swarming.MODELS),
            enforced=False,
        ),
    ]


def resilience_swarm(
    resilience_config: ExperimentConfig,
    swarming_config: ExperimentConfig,
) -> Tuple[Artifact, ...]:
    """The resilience matrix, then the swarming sweep (recovery is
    whatever ``resilience_config`` says; :func:`build` turns it on)."""
    return (
        Artifact(
            "resilience",
            lambda: resilience.run(resilience_config, workers=1),
            _check_resilience,
        ),
        Artifact(
            "swarming",
            lambda: swarming.run(swarming_config),
            _check_swarming,
        ),
    )


# -- the measured sizes ------------------------------------------------------

#: Workload name -> the sizes :func:`build` measures it at.
SIZES: Dict[str, Dict[str, Any]] = {
    "paper": {"repetitions": 5},
    "keepalive": {"repetitions": 1, "pools": (100,), "baseline_pool": 1000},
    "federated": {"repetitions": 1, "pools": (100, 800), "baseline_pool": 100},
    "resilience_swarm": {"resilience_repetitions": 2, "swarming_repetitions": 1},
}
NAMES: Tuple[str, ...] = tuple(SIZES)

#: Input seeds, as ``vet.py 1 81`` prints them: the seeds in 1-80 on
#: which every workload runs cleanly and has within 5% of the median
#: seed's kernel events.  Fig. 7 runs forever at 48 and 68, Fig. 6's
#: economic model is not the cheapest at 44, 48 and 66, and 31 more
#: seeds are atypically sized, mostly on ``keepalive``.  Taking
#: ``--seed`` itself as the input would hit a failing seed in most sets
#: of ten runs.
INPUT_SEEDS: Tuple[int, ...] = (
    1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 15, 16, 18, 20, 23, 24, 27, 28, 29,
    30, 35, 36, 39, 41, 42, 43, 45, 47, 50, 51, 53, 56, 57, 58, 61, 65,
    67, 70, 71, 72, 73, 74, 75, 76, 79,
)
#: Inputs one untraced run cycles through.
INPUTS_PER_RUN = 4


def inputs(seed: int) -> List[int]:
    """The input seeds a run at ``seed`` measures (always the same ones)."""
    return random.Random(seed).sample(INPUT_SEEDS, INPUTS_PER_RUN)


def build(name: str, seed: int) -> Tuple[Artifact, ...]:
    """The workload the benchmark measures under ``name`` at ``seed``."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    size = SIZES[name]
    if name == "paper":
        return paper(ExperimentConfig(seed=seed, repetitions=size["repetitions"]))
    if name in ("keepalive", "federated"):
        return federated(
            ExperimentConfig(seed=seed, repetitions=size["repetitions"]),
            pools=size["pools"], baseline_pool=size["baseline_pool"],
        )
    return resilience_swarm(
        ExperimentConfig(seed=seed, repetitions=size["resilience_repetitions"],
                         recovery=RecoveryConfig()),
        ExperimentConfig(seed=seed, repetitions=size["swarming_repetitions"]),
    )
