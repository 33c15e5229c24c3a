"""Figure 2 — time in receiving the petition for file transmission.

The broker petitions each SimpleClient for a (small) file transfer and
measures how long the petition takes to be received — the paper's
published means are 12.86 / 0.04 / 2.79 / 0.07 / 5.19 / 0.35 / 27.13 /
0.06 s for SC1..SC8.  Averaged over the configured repetitions (five,
like the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.simnet.planetlab import FIGURE2_PETITION_TARGETS
from repro.units import mbit

__all__ = ["Fig2Result", "run"]

#: Probe file size — small so the measurement isolates the petition.
PROBE_BITS = mbit(1)


@dataclass(frozen=True)
class Fig2Result:
    """Per-peer petition-time summaries vs the published targets."""

    summaries: Mapping[str, Summary]
    targets: Mapping[str, float]

    def table(self) -> str:
        """Paper-vs-measured table."""
        rows = [
            (
                label,
                self.targets[label],
                s.mean,
                s.std,
                (s.mean / self.targets[label]) if self.targets[label] else float("nan"),
            )
            for label, s in self.summaries.items()
        ]
        return render_table(
            ("peer", "paper (s)", "measured (s)", "std", "ratio"),
            rows,
            title="Figure 2 — time in receiving the petition (s)",
        )

    def slowest_peer(self) -> str:
        """The measured straggler (paper: SC7)."""
        return max(self.summaries, key=lambda k: self.summaries[k].mean)


def _scenario(session: Session):
    """One repetition: petition every SC once (tiny probe transfer)."""
    times: Dict[str, float] = {}
    for label in session.sc_labels():
        client = session.client(label)
        outcome = yield session.sim.process(
            session.broker.transfers.send_file(
                client.advertisement(),
                filename=f"probe-{label}",
                total_bits=PROBE_BITS,
                n_parts=1,
            )
        )
        times[label] = outcome.petition_time
    return times


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig2Result:
    """Run the Figure 2 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    summaries = average_rows(rows)
    return Fig2Result(summaries=summaries, targets=dict(FIGURE2_PETITION_TARGETS))
