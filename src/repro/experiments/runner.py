"""Experiment runner: repetition loop + averaging.

The paper repeats each measurement five times and reports the average.
:func:`run_cells` runs a study's cells — ``(ExperimentConfig,
scenario)`` pairs — building a fresh
:class:`~repro.experiments.scenario.Session` per repetition of every
cell (fresh seed substream, fresh overlay); :func:`run_repetitions` is
the one-cell case.  The per-repetition result rows go to
:func:`average_rows` for the figures' mean series.

Every (cell, repetition) is independent — its seed derives only from
its config — so ``workers > 1`` fans them all out over one process
pool (:mod:`repro.perf.parallel`).  Parallel runs are bit-identical to
serial ones by construction: the serial path runs the *same* per-
repetition worker (fresh session, isolated per-repetition metrics
registry) in-process, and both paths fold results and registries back
in cell-then-repetition order.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, summarize
from repro.experiments.scenario import ExperimentConfig, Session
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import active_registry, use_registry
from repro.perf.parallel import picklable, pmap, resolve_workers

__all__ = ["run_cells", "run_repetitions", "average_rows"]

#: New container objects between two young collections while a
#: repetition runs (CPython's default is 700).  A pass walks at most
#: about this many objects, and the cyclic garbage waiting for one
#: stays below it.  A 1000-peer keepalive session peaks at about
#: 143,000, so sessions of that size see no pass before their end.
YOUNG_PASS_OBJECTS = 200_000

# A generation threshold no repetition reaches.
_NEVER = 1 << 30


def _run_one_repetition(task: Tuple[ExperimentConfig, Callable, int, bool]):
    """One repetition in isolation (the unit both sweep paths run).

    Returns ``(result, sim_time_s, registry_or_None)``.  With metrics
    wanted, the repetition runs under its own fresh registry — the
    caller merges registries back in task order, so the merge tree
    (per-repetition subtotals folded in order) is the same whether the
    repetition ran in-process or in a worker.

    While the session is built and run, the cycle collector only makes
    young passes, one per :data:`YOUNG_PASS_OBJECTS` new container
    objects, and never an older-generation one: a live session is one
    large cyclic graph (peer <-> services, host <-> handlers, process
    <-> generator) that full collections would walk again and again
    while it cannot be freed.  Young passes keep the cyclic garbage a
    long repetition leaves behind bounded.  Everything the repetition
    allocated is still in the two young generations at its end, so one
    ``gc.collect(1)`` frees the finished session without walking the
    interpreter's long-lived objects.  With the collector off, the
    repetition leaves it alone.
    """
    if not gc.isenabled():
        return _run_session(*task)
    threshold = gc.get_threshold()
    gc.set_threshold(YOUNG_PASS_OBJECTS, _NEVER, _NEVER)
    try:
        return _run_session(*task)
    finally:
        gc.set_threshold(*threshold)
        gc.collect(1)


def _run_session(config: ExperimentConfig, scenario: Callable, rep: int,
                 with_metrics: bool):
    # Its own frame, so the session is unreachable once it returns and
    # the collection in _run_one_repetition can free it.
    registry = MetricsRegistry() if with_metrics else None
    scope = use_registry(registry) if registry is not None else nullcontext()
    with scope:
        session = Session(config.for_repetition(rep))
        result = session.run(scenario)
    return result, session.sim.now, registry


def run_cells(
    cells: Sequence[Tuple[ExperimentConfig, Callable[[Session], object]]],
    workers: Optional[int] = None,
) -> List[List[object]]:
    """Run every cell's repetitions as one sweep on fresh sessions.

    A cell is an ``(ExperimentConfig, scenario)`` pair;
    ``scenario(session)`` must return a generator process (the session
    connects all peers first, then runs it).  Returns, per cell, the
    list of per-repetition results in repetition order.

    ``workers`` > 1 runs the (cell, repetition) tasks on one process
    pool (``None`` uses the :mod:`repro.perf.parallel` default,
    normally serial; ``0`` = one worker per CPU).  A scenario that
    cannot be pickled (e.g. a closure) silently degrades the sweep to
    the serial path.

    When a metrics registry is installed (``repro.obs.use_registry``)
    every repetition's instruments accumulate into it, plus a
    per-repetition count and sim-duration histogram from here.
    """
    reg = active_registry()
    # Cold path: bound once per sweep, used once per repetition.
    m_reps = reg.counter("experiment.repetitions")  # simlint: disable=SIM006 -- per-run binding, not per-event
    m_sim_s = reg.histogram(  # simlint: disable=SIM006 -- per-run binding, not per-event
        "experiment.rep_sim_time_s",
        bounds=(1, 10, 60, 300, 600, 1800, 3600, 7200, 14400),
    )
    tasks = [
        (config, scenario, rep, reg.enabled)
        for config, scenario in cells
        for rep in range(config.repetitions)
    ]
    n_workers = resolve_workers(workers, len(tasks))
    if n_workers > 1 and not all(picklable(scenario) for _, scenario in cells):
        n_workers = 1
    outcomes = iter(pmap(_run_one_repetition, tasks, workers=n_workers))

    results: List[List[object]] = []
    for config, _scenario in cells:  # cell-then-repetition order
        rows: List[object] = []
        for _rep in range(config.repetitions):
            result, sim_time_s, rep_registry = next(outcomes)
            rows.append(result)
            if rep_registry is not None:
                reg.merge(rep_registry)
            m_reps.inc()
            m_sim_s.observe(sim_time_s)
        results.append(rows)
    return results


def run_repetitions(
    config: ExperimentConfig,
    scenario: Callable[[Session], object],
    workers: Optional[int] = None,
) -> List[object]:
    """Run ``scenario`` once per repetition on fresh sessions: the
    one-cell :func:`run_cells` sweep.  Returns the per-repetition
    results, in repetition order."""
    return run_cells([(config, scenario)], workers)[0]


def average_rows(
    rows: List[Mapping[str, float]]
) -> Dict[str, Summary]:
    """Per-key summaries across repetition rows."""
    if not rows:
        raise ValueError("no rows to average")
    keys = set(rows[0])
    for row in rows[1:]:
        if set(row) != keys:
            raise ValueError("repetition rows disagree on keys")
    return {key: summarize([row[key] for row in rows]) for key in sorted(keys)}
