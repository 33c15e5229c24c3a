"""Figure 7 — just execution vs transmission & execution, per peer.

"We measured the time needed when file transmission and processing
takes place in peer nodes versus just processing time. … careful peer
node selection should be done to avoid including peer nodes (such as
peer node SC7 in our experiment)."

Each SimpleClient executes a virtual-campus processing task twice: once
with the input already in place ("just execution") and once shipping
the 100 Mb input first in 4 parts ("transmission & execution").
Expected shape: the combined time dominates everywhere; on the
straggler SC7 the *transmission* share dominates the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import to_minutes
from repro.workloads.tasks import ProcessingTask
from repro.workloads.files import FileSpec

__all__ = ["Fig7Result", "run", "TASK"]

#: The measured task: process a 100 Mb campus file at 3 ops/Mb.
TASK = ProcessingTask(
    name="campus-processing",
    input_file=FileSpec.of_mbit("campus-100.dat", 100.0),
    ops_per_mbit=3.0,
)
#: Transmission granularity for the "transmission & execution" setting.
INPUT_PARTS = 4


@dataclass(frozen=True)
class Fig7Result:
    """Per-peer summaries: just-execution and transmission+execution."""

    summaries: Mapping[str, Summary]  # keys "SC1/exec", "SC1/both"

    def exec_minutes(self, label: str) -> float:
        """Mean just-execution time (minutes)."""
        return to_minutes(self.summaries[f"{label}/exec"].mean)

    def both_minutes(self, label: str) -> float:
        """Mean transmission+execution time (minutes)."""
        return to_minutes(self.summaries[f"{label}/both"].mean)

    def transfer_share(self, label: str) -> float:
        """Fraction of the combined time spent on transmission."""
        both = self.summaries[f"{label}/both"].mean
        exec_ = self.summaries[f"{label}/exec"].mean
        if both <= 0:
            return 0.0
        return max(both - exec_, 0.0) / both

    def peers(self) -> tuple[str, ...]:
        """Peer labels present."""
        return tuple(sorted({k.split("/")[0] for k in self.summaries}))

    def table(self) -> str:
        """Per-peer table in minutes (the paper's axis)."""
        rows = [
            (
                label,
                self.exec_minutes(label),
                self.both_minutes(label),
                self.transfer_share(label),
            )
            for label in self.peers()
        ]
        return render_table(
            ("peer", "just execution (min)", "transmission & execution (min)",
             "transfer share"),
            rows,
            title="Figure 7 — execution vs transmission & execution",
        )


def _scenario(session: Session):
    """One repetition: both settings on every SC."""
    times: Dict[str, float] = {}
    for label in session.sc_labels():
        client = session.client(label)
        adv = client.advertisement()
        just = yield from session.sim.call(
            session.broker.tasks.submit(
                adv, name=f"exec-{label}", ops=TASK.ops
            )
        )
        times[f"{label}/exec"] = just.round_trip_seconds
        both = yield from session.sim.call(
            session.broker.tasks.submit(
                adv,
                name=f"both-{label}",
                ops=TASK.ops,
                input_bits=TASK.input_bits,
                input_parts=INPUT_PARTS,
            )
        )
        times[f"{label}/both"] = both.total_seconds
    return times


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig7Result:
    """Run the Figure 7 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return Fig7Result(summaries=average_rows(rows))
