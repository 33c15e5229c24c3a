"""Figure 4 — transmission time of the last Mb, per peer.

During the 50 Mb transfer the final megabit is transmitted as its own
unit; the time to complete it (stream + persist + confirm) is the
paper's "time in completing the reception of the last Mb".  Expected
shape: SC7 "is from 2 to 4 times slower than the rest of the peers".
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Mapping

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import mbit

__all__ = ["Fig4Result", "run"]

#: Same 50 Mb workload as Figure 3.
FILE_BITS = mbit(50)


@dataclass(frozen=True)
class Fig4Result:
    """Per-peer last-Mb-time summaries."""

    summaries: Mapping[str, Summary]

    def table(self) -> str:
        """Per-peer table (seconds)."""
        rows = [
            (label, s.mean, s.std) for label, s in self.summaries.items()
        ]
        return render_table(
            ("peer", "mean (s)", "std"),
            rows,
            title="Figure 4 — transmission time of the last Mb (s)",
        )

    def straggler_ratio(self, straggler: str = "SC7") -> float:
        """Straggler's last-Mb time over the median of the others."""
        others = [
            s.mean for label, s in self.summaries.items() if label != straggler
        ]
        return self.summaries[straggler].mean / median(others)


def _scenario(session: Session):
    """One repetition: 50 Mb to every SC with last-Mb instrumentation."""
    times: Dict[str, float] = {}
    for label in session.sc_labels():
        client = session.client(label)
        outcome = yield from session.sim.call(
            session.broker.transfers.send_file(
                client.advertisement(),
                filename=f"file50lm-{label}",
                total_bits=FILE_BITS,
                n_parts=1,
                measure_last_mb=True,
            )
        )
        times[label] = outcome.last_mb_time
    return times


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig4Result:
    """Run the Figure 4 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return Fig4Result(summaries=average_rows(rows))
