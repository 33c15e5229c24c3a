"""Figure 6 — file transmission time under the three selection models.

The paper transmits a file whose parts go to a peer chosen by one of
the three models — *economic scheduling*, *data evaluator (same
priority)* and *user's preference (quick peer)* — at two granularities
(4 and 16 parts), and reports the normalized transmission cost.  The
published bars (seconds per Mb): economic 0.16 / same-priority 0.25 /
quick-peer 0.33 at 4 parts; all ~0.14 at 16 parts.

Scenario reproduced here:

1. **Warmup** — the broker transfers a probe file to every peer under a
   delivery deadline.  This builds history three ways: broker-observed
   goodput/latency (feeding the economic estimator), cancellation
   records for peers that blow the deadline (feeding the evaluator's
   §2.2 shares), and the *user's own* experience table (a separate
   principal from the broker — the user only knows what they have
   personally seen).
2. **Measurement** — a 100 Mb file is transmitted with the peer
   *re-selected before every part* (each confirmation is a decision
   point).  The models differ in what they can see:

   * economic — first-party goodput EWMAs + ready-time planning: picks
     the genuinely best bulk peer (high rate, low loss, no backlog);
   * data evaluator (same priority) — the §2.2 historical shares:
     screens out unreliable peers (deadline cancellations during
     warmup) but is *speed-blind* — equal-cost peers are
     indistinguishable, so its pick is an arbitrary clean peer,
     mediocre in expectation;
   * quick peer — the user's remembered most *responsive* peer
     (petition latency): responsiveness is not bulk quality, so the
     pick is a lossy/mediocre-bandwidth peer and the model never
     notices (it "does not take into account the current state of the
     selected peer nor the network").

   The crossover: at coarse granularity (25 Mb parts) a lossy pick
   pays the whole-unit retransmission amplification, so the models'
   informational differences show up as large cost gaps; at fine
   granularity (6.25 Mb parts) the amplification vanishes and all
   three models converge — the paper's Figure 6 shape.

An optional **background herd** (other users piling onto the
best-reputation peer from a separate node) is available for the
staleness ablation benchmarks via ``_scenario(with_background=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.analysis.stats import Summary
from repro.errors import TransferAborted
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import make_selector, probe
from repro.overlay.client import Client
from repro.selection.base import SelectionContext, Workload
from repro.selection.preference import PreferenceTable
from repro.units import mbit, to_mbit

__all__ = ["Fig6Result", "run", "MODELS", "GRANULARITIES", "PAPER_SERIES"]

#: Model evaluation order (fixed, like the paper's bar order).
MODELS: Tuple[str, ...] = ("economic", "same_priority", "quick_peer")
#: Paper's two series.
GRANULARITIES: Tuple[int, ...] = (4, 16)
#: Published values (seconds per Mb) for reference in reports.
PAPER_SERIES: Mapping[str, Mapping[int, float]] = {
    "economic": {4: 0.16, 16: 0.14},
    "same_priority": {4: 0.25, 16: 0.14},
    "quick_peer": {4: 0.33, 16: 0.14},
}

#: Workload sizes.
MEASURE_BITS = mbit(100)
WARMUP_BITS = mbit(20)
WARMUP_PARTS = 4
WARMUP_ROUNDS = 3
WARMUP_DEADLINE_S = 26.0
BACKGROUND_BITS = mbit(40)
BACKGROUND_PARTS = 2
BACKGROUND_INTERVAL_S = 20.0
#: At most this many herd transfers in flight — keeps the congestion
#: level stationary instead of an unbounded pile-up.
BACKGROUND_MAX_CONCURRENT = 2
SETTLE_GAP_S = 30.0


@dataclass(frozen=True)
class Fig6Result:
    """Per-(model, granularity) normalized cost summaries (s/Mb)."""

    summaries: Mapping[str, Summary]  # key "economic/4" etc.

    def cost(self, model: str, n_parts: int) -> float:
        """Mean seconds-per-Mb for one (model, granularity)."""
        return self.summaries[f"{model}/{n_parts}"].mean

    def spread(self, n_parts: int) -> float:
        """Max/min cost ratio across models at one granularity."""
        costs = [self.cost(m, n_parts) for m in MODELS]
        return max(costs) / min(costs)

    def table(self) -> str:
        """Paper-vs-measured table (s/Mb)."""
        rows = []
        for model in MODELS:
            for g in GRANULARITIES:
                rows.append(
                    (
                        model,
                        g,
                        PAPER_SERIES[model][g],
                        self.cost(model, g),
                        self.summaries[f"{model}/{g}"].std,
                    )
                )
        return render_table(
            ("model", "parts", "paper (s/Mb)", "measured (s/Mb)", "std"),
            rows,
            title="Figure 6 — transmission cost per selection model",
        )


#: Hostname of the Table 1 node acting as the background-load sender
#: (a separate principal so the broker's self-discounting of its own
#: open transfers does not hide the herd's load).
BACKGROUND_SENDER = "planetlab2.upc.es"


def _warmup(session: Session):
    """Deadline-bounded probe transfer to every peer, once per round."""
    for round_idx in range(WARMUP_ROUNDS):
        for label in session.sc_labels():
            yield from probe(
                session.broker,
                session.client(label).advertisement(),
                f"warmup{round_idx}-{label}",
                WARMUP_BITS,
                WARMUP_PARTS,
                WARMUP_DEADLINE_S,
            )


def _background(session: Session, sender, stop):
    """Herd load: other users keep hitting the best-reputation peer."""
    broker = session.broker
    sim = session.sim
    active = [0]

    def one_transfer(adv):
        active[0] += 1
        try:
            yield sim.process(
                sender.transfers.send_file(
                    adv,
                    filename=f"bg-{sim.now:.0f}",
                    total_bits=BACKGROUND_BITS,
                    n_parts=BACKGROUND_PARTS,
                )
            )
        except TransferAborted:
            pass
        finally:
            active[0] -= 1

    while not stop.triggered:
        candidates = broker.candidates()
        if candidates and active[0] < BACKGROUND_MAX_CONCURRENT:
            # The herd goes to the peer with the best transfer
            # reputation (recency-weighted goodput).
            table = PreferenceTable.recent_transfer(broker.observed)
            scored = [(table.score(r.peer_id), r.adv.name, r) for r in candidates]
            scored.sort(key=lambda t: (t[0], t[1]))
            target = scored[0][2]
            sim.process(one_transfer(target.adv), name="bg-transfer")
        yield BACKGROUND_INTERVAL_S


def _measure(session: Session, model: str, n_parts: int):
    """Transmit 100 Mb with per-part re-selection; return s/Mb."""
    broker = session.broker
    sim = session.sim
    part_bits = MEASURE_BITS / n_parts
    handles: Dict[object, object] = {}
    started = sim.now
    for _ in range(n_parts):
        selector = make_selector(model, session, "fig6")
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(transfer_bits=part_bits),
            candidates=broker.candidates(),
        )
        record = selector.select(ctx)
        handle = handles.get(record.peer_id)
        if handle is None:
            handle = yield sim.process(
                broker.transfers.open_transfer(
                    record.adv,
                    filename=f"measure-{model}-{n_parts}",
                    total_bits=MEASURE_BITS,
                )
            )
            handles[record.peer_id] = handle
        yield sim.process(handle.send_part(part_bits))
    elapsed = sim.now - started
    for handle in handles.values():
        handle.close()
    return elapsed / to_mbit(MEASURE_BITS)


def _scenario(session: Session, with_background: bool = False):
    """One repetition: warmup, (optional) background, measure cells."""
    sim = session.sim
    yield sim.process(_warmup(session))
    stop = sim.event(name="stop-background")
    if with_background:
        # The background herd is a separate principal on its own node.
        bg_sender = Client(
            session.network, BACKGROUND_SENDER, session.ids, name="bg-sender"
        )
        yield sim.process(bg_sender.connect(session.broker.advertisement()))
        sim.process(_background(session, bg_sender, stop), name="background")
    yield SETTLE_GAP_S
    costs: Dict[str, float] = {}
    for n_parts in GRANULARITIES:
        for model in MODELS:
            cost = yield sim.process(_measure(session, model, n_parts))
            costs[f"{model}/{n_parts}"] = cost
            yield SETTLE_GAP_S
    stop.succeed()
    return costs


def _config_with_slice(config: ExperimentConfig) -> ExperimentConfig:
    """The scenario needs the background sender's Table 1 node."""
    from dataclasses import replace

    return replace(config, include_full_slice=True)


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig6Result:
    """Run the Figure 6 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(
        _config_with_slice(config), _scenario
    )
    return Fig6Result(summaries=average_rows(rows))
