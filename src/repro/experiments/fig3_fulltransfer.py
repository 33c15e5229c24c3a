"""Figure 3 — transmission time of a 50 Mb file, per peer.

The broker transmits a 50 Mb file to each SimpleClient ("a file was
split into many parts of a fixed size such as 50Mb, 100Mb, … and such
parts were sent to peers"); the per-peer transmission time is reported.
Expected shape: peer SC7 "was the latest in completing the file
transmission".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import mbit

__all__ = ["Fig3Result", "run", "FILE_BITS"]

#: The measured unit: one 50 Mb part.
FILE_BITS = mbit(50)


@dataclass(frozen=True)
class Fig3Result:
    """Per-peer 50 Mb transmission-time summaries."""

    summaries: Mapping[str, Summary]

    def table(self) -> str:
        """Per-peer table (seconds)."""
        rows = [
            (label, s.mean, s.std, s.minimum, s.maximum)
            for label, s in self.summaries.items()
        ]
        return render_table(
            ("peer", "mean (s)", "std", "min", "max"),
            rows,
            title="Figure 3 — transmission time for a file of 50 Mb (s)",
        )

    def slowest_peer(self) -> str:
        """The measured straggler (paper: SC7)."""
        return max(self.summaries, key=lambda k: self.summaries[k].mean)


def _scenario(session: Session):
    """One repetition: 50 Mb to every SC."""
    times: Dict[str, float] = {}
    for label in session.sc_labels():
        client = session.client(label)
        outcome = yield from session.sim.call(
            session.broker.transfers.send_file(
                client.advertisement(),
                filename=f"file50-{label}",
                total_bits=FILE_BITS,
                n_parts=1,
            )
        )
        times[label] = outcome.transmission_time
    return times


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig3Result:
    """Run the Figure 3 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return Fig3Result(summaries=average_rows(rows))
