"""Swarming — fig5's granularity sweep with k concurrent sources.

Extension (ROADMAP open item #2): the paper shows part granularity
collapses transfer cost under informed selection; the BitTorrent
generalization fetches the parts of one file from *several* selected
peers at once.  This experiment re-runs the 100 Mb granularity sweep
with k ∈ {1, 2, 4} sources per selection model on two testbeds:

* ``slice25`` — the full Table 1 slice; the origin (broker) plus
  model-ranked SimpleClients seed a straggler-grade destination (SC7,
  the node whose load spikes the paper measured).
* ``synthetic`` — the broker plus a pool of synthetic replica slivers
  (the scale study's substrate) seeding SC4.

Per (model, k, granularity) cell one swarm download runs with the
source set chosen as: the origin broker, plus (k-1) replicas picked
greedily by the model (economic / same-priority evaluator /
quick-peer preference — the same machinery as Figure 6).  Reported
columns are mean completion time (petitions included) and the
last-piece tail (the swarming analogue of the paper's last-Mb
measurement).

Every cell runs in its *own* freshly-seeded session (testbed, warmup
and all), not sequentially in a shared one: node load is modulated
over simulated time, so back-to-back cells would compare different
network weather and the k-columns would mostly measure scheduling
luck.  With per-cell sessions the repetitions of every cell replay
identical initial conditions and the columns differ only by (model,
k, granularity).  A consequence worth exploiting: at k=1 the source
set is just the origin and the model is never consulted, so the k=1
baseline is computed once per (testbed, granularity) and re-used for
every model (it is bit-identical by construction; under a fault plan
re-assignment *can* consult the model, so each model then runs its
own baseline).

Why k helps even though the destination's downlink is the bottleneck:
a single stream leaves the downlink idle during every per-part
confirm round and every whole-unit retransmission stall; concurrent
streams overlap those gaps.  At 16 parts the confirm rounds alone are
a double-digit share of the transfer, which is exactly what the k=4
column recovers.

Every download is deadline-supervised with the resilience matrix's
censored-vs-aborted accounting, so the sweep stays well-defined under
an installed fault plan (``--faults straggler`` etc.): a download that
fails inside the deadline counts as *aborted*, one still running at
the deadline is *censored* (its completion recorded as NaN), and the
per-testbed accounting columns always sum to the offered downloads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Mapping, Tuple

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_cells
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import join, make_selector, online_view, probe
from repro.selection.base import SelectionContext, Workload
from repro.simnet.planetlab import synthetic_hostnames
from repro.overlay.client import SimpleClient
from repro.swarm import Leg, SwarmCoordinator
from repro.units import mbit

__all__ = [
    "SwarmingResult",
    "run",
    "MODELS",
    "SOURCES_K",
    "GRANULARITIES",
    "TESTBEDS",
]

#: Model evaluation order (fig6's bar order).
MODELS: Tuple[str, ...] = ("economic", "same_priority", "quick_peer")
#: Concurrent-source counts swept per model.
SOURCES_K: Tuple[int, ...] = (1, 2, 4)
#: fig5's granularities for the 100 Mb file.
GRANULARITIES: Tuple[int, ...] = (1, 4, 16)
#: Testbed label -> destination SC label.
TESTBEDS: Mapping[str, str] = {"slice25": "SC7", "synthetic": "SC4"}

FILE_BITS = mbit(100)
#: Synthetic replica pool size (the ``synthetic`` testbed's sources).
N_SYNTHETIC = 8
#: Warmup probe per replica (builds the models' observed history).
WARMUP_BITS = mbit(10)
WARMUP_PARTS = 2
WARMUP_DEADLINE_S = 30.0
#: Per-download supervision deadline (binds only under fault plans).
RUN_DEADLINE_S = 900.0

#: CI smoke scope: synthetic testbed only, k<=2, 16 parts.
_SMOKE_ENV = "REPRO_SWARM_SMOKE"


def _smoke() -> bool:
    return bool(os.environ.get(_SMOKE_ENV))


@dataclass(frozen=True)
class SwarmingResult:
    """Per-cell summaries, keyed ``testbed/model/k{k}/g{g}`` (mean
    completion seconds) and ``.../tail`` (last-piece tail)."""

    summaries: Mapping[str, Summary]

    def completion(self, testbed: str, model: str, k: int, g: int) -> float:
        """Mean completion seconds for one cell."""
        return self.summaries[f"{testbed}/{model}/k{k}/g{g}"].mean

    def table(self) -> str:
        """Completion/tail grid over every measured cell."""
        rows = []
        for key in self.summaries:
            if key.endswith("/tail") or key.count("/") != 3:
                continue
            testbed, model, k_label, g_label = key.split("/")
            summ = self.summaries[key]
            tail = self.summaries[f"{key}/tail"]
            rows.append(
                (
                    testbed,
                    model,
                    int(k_label[1:]),
                    int(g_label[1:]),
                    summ.mean,
                    summ.std,
                    tail.mean,
                )
            )
        rows.sort()
        return render_table(
            (
                "testbed", "model", "k", "parts",
                "completion (s)", "std", "last-piece tail (s)",
            ),
            rows,
            title="Swarming — multi-source downloads vs the single-peer baseline",
        )


def _source_selector(
    session: Session,
    model: str,
    replicas: Dict[str, object],
    dest_name: str,
    part_bits: float,
):
    """Selection callback for one swarm download.

    The origin (broker) always seeds; the model greedily ranks the
    replica pool for the remaining slots.  Re-assignment calls land
    here too (``exclude`` then carries every source already used).
    """
    broker = session.broker
    sim = session.sim

    def select(needed: int, exclude: Tuple[str, ...]):
        chosen: List[Leg] = []
        if broker.name not in exclude and len(chosen) < needed:
            chosen.append(Leg(broker))
        taken = tuple(exclude) + tuple(s.name for s in chosen) + (dest_name,)
        pool = [
            rec
            for rec in online_view(model, session)
            if rec.adv.name in replicas and rec.adv.name not in taken
        ]
        while pool and len(chosen) < needed:
            selector = make_selector(model, session, "swarming")
            ctx = SelectionContext(
                broker=broker,
                now=sim.now,
                workload=Workload(transfer_bits=part_bits),
                candidates=tuple(pool),
            )
            record = selector.select(ctx)
            chosen.append(Leg(replicas[record.adv.name]))
            pool = [rec for rec in pool if rec.peer_id != record.peer_id]
        return chosen

    return select


def _warmup(session: Session, replicas: Dict[str, object]):
    """Deadline-bounded probe to every replica: the broker's observed
    goodput/latency history is what the models rank sources by."""
    for name, node in replicas.items():
        yield from probe(
            session.broker,
            node.advertisement(),
            f"swarm-warmup-{name}",
            WARMUP_BITS,
            WARMUP_PARTS,
            WARMUP_DEADLINE_S,
        )


def _replica_pool(session: Session, testbed: str, dest_label: str):
    """Generator: bring up (and index) the replica sources.

    Wait on it with ``yield from sim.call(...)``; start it with
    ``sim.process`` only to run it alongside the caller.
    """
    replicas: Dict[str, object] = {}
    if testbed == "synthetic":
        for hostname in synthetic_hostnames(session.config.synthetic_nodes):
            node = SimpleClient(
                session.network, hostname, session.ids, name=hostname
            )
            replicas[node.name] = node
        yield from join(session, replicas.values())
    else:
        for label in session.sc_labels():
            if label != dest_label:
                replicas[label] = session.client(label)
    return replicas


def _cell_scenario(
    session: Session,
    testbed: str = "synthetic",
    model: str = MODELS[0],
    k: int = 1,
    g: int = 16,
):
    """One (model, k, granularity) cell: fresh testbed, warmup, one
    deadline-supervised swarm download."""
    sim = session.sim
    dest_label = TESTBEDS[testbed]
    dest = session.client(dest_label)
    replicas = yield from sim.call(_replica_pool(session, testbed, dest_label))
    yield from sim.call(_warmup(session, replicas))

    filename = f"swarm-{testbed}-{model}-k{k}-g{g}"
    part_bits = FILE_BITS / g
    coord = SwarmCoordinator(
        session.network,
        dest.advertisement(),
        filename=filename,
        total_bits=FILE_BITS,
        n_parts=g,
        select=_source_selector(
            session, model, replicas, dest_label, part_bits
        ),
        k=k,
    )
    proc = sim.process(coord.download())
    finished = yield from sim.within(proc, RUN_DEADLINE_S)
    completed = aborted = censored = 0
    if not finished:
        # Still running at the deadline: censored, not aborted — tell
        # them apart like the resilience matrix does.
        censored = 1
        coord.abort("deadline")
        if not coord.settled:
            yield proc
        outcome = coord.outcome
        ok = False
    else:
        outcome = proc.value
        ok = outcome.ok
        if ok:
            completed = 1
        else:
            aborted = 1
    key = f"{testbed}/{model}/k{k}/g{g}"
    rows: Dict[str, float] = {
        key: outcome.completion_s if ok else math.nan,
        f"{key}/tail": outcome.last_piece_tail_s if ok else math.nan,
        f"{testbed}/completed": float(completed),
        f"{testbed}/aborted": float(aborted),
        f"{testbed}/censored": float(censored),
    }
    return rows


#: Accounting keys are summed when cell rows merge; everything else
#: (per-cell measurements) is disjoint and just copied.
_COUNTER_SUFFIXES = ("completed", "aborted", "censored")


def _merge_row(dst: Dict[str, float], src: Mapping[str, float]) -> None:
    for key, value in src.items():
        if key.rsplit("/", 1)[-1] in _COUNTER_SUFFIXES:
            dst[key] = dst.get(key, 0.0) + value
        else:
            dst[key] = value


def _config_for(testbed: str, config: ExperimentConfig) -> ExperimentConfig:
    if testbed == "slice25":
        return replace(config, include_full_slice=True)
    return replace(config, synthetic_nodes=N_SYNTHETIC)


def run(config: ExperimentConfig = ExperimentConfig()) -> SwarmingResult:
    """Run the swarming sweep on both testbeds."""
    testbeds = tuple(TESTBEDS) if not _smoke() else ("synthetic",)
    ks = SOURCES_K if not _smoke() else tuple(k for k in SOURCES_K if k <= 2)
    gs = GRANULARITIES if not _smoke() else (16,)
    keys: List[Tuple[str, int, int, str, bool]] = []
    cells = []
    for testbed in testbeds:
        cell_config = _config_for(testbed, config)
        for k in ks:
            for g in gs:
                # k=1 never consults the model (the origin is the only
                # source), so one baseline serves every model — unless
                # a fault plan is installed, in which case broker
                # failure re-assignment does consult it.
                shared_baseline = k == 1 and config.fault_plan is None
                models = (MODELS[0],) if shared_baseline else MODELS
                for model in models:
                    keys.append((testbed, k, g, model, shared_baseline))
                    cells.append((cell_config, partial(
                        _cell_scenario, testbed=testbed, model=model, k=k, g=g,
                    )))
    merged: List[Dict[str, float]] = [
        {} for _ in range(config.repetitions)
    ]
    for (testbed, k, g, model, shared_baseline), rep_rows in zip(
        keys, run_cells(cells)
    ):
        for i, row in enumerate(rep_rows):
            _merge_row(merged[i], row)
            if shared_baseline:
                # Replicate the measurements (but not the download
                # accounting) under the other models' keys.
                src = f"{testbed}/{model}/k{k}/g{g}"
                for other in MODELS[1:]:
                    dst = f"{testbed}/{other}/k{k}/g{g}"
                    merged[i][dst] = row[src]
                    merged[i][f"{dst}/tail"] = row[f"{src}/tail"]
    return SwarmingResult(summaries=average_rows(merged))
