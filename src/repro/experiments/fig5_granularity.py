"""Figure 5 — 100 Mb file sent whole vs divided into 4 and 16 parts.

"The transmission time of the file as a whole it's not worth!  On the
other hand, when the file is sent by smaller parts (… 16 parts, …
6.25Mb), the transmission time is in average 1.7 minutes, which is much
smaller than the transmission time of the file as a whole and even when
the division into 4 parts is considered."

Mechanism reproduced: whole transfer units retransmit *entirely* on
loss, so expected sends grow exponentially with unit size; smaller
parts also localize stall-detection timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.analysis.stats import Summary
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import mbit, to_minutes

__all__ = ["Fig5Result", "run", "GRANULARITIES", "FILE_BITS"]

#: The measured file (paper: 100 Mb).
FILE_BITS = mbit(100)
#: Paper's three granularities: whole, 4 parts, 16 parts.
GRANULARITIES: Tuple[int, ...] = (1, 4, 16)


@dataclass(frozen=True)
class Fig5Result:
    """Per-(peer, granularity) transmission-time summaries (seconds)."""

    summaries: Mapping[str, Summary]  # key "SC1/4" etc.
    granularities: Tuple[int, ...] = GRANULARITIES

    def mean_seconds(self, label: str, n_parts: int) -> float:
        """Mean transmission time for one (peer, granularity)."""
        return self.summaries[f"{label}/{n_parts}"].mean

    def peers(self) -> Tuple[str, ...]:
        """Peer labels present, in order."""
        seen = []
        for key in self.summaries:
            label = key.split("/")[0]
            if label not in seen:
                seen.append(label)
        return tuple(sorted(seen))

    def grand_mean_minutes(self, n_parts: int) -> float:
        """Across-peer mean for one granularity, in minutes."""
        peers = self.peers()
        total = sum(self.mean_seconds(p, n_parts) for p in peers)
        return to_minutes(total / len(peers))

    def table(self) -> str:
        """Per-peer table in minutes (matching the paper's axis)."""
        rows = []
        for label in self.peers():
            rows.append(
                (label,)
                + tuple(
                    to_minutes(self.mean_seconds(label, g))
                    for g in self.granularities
                )
            )
        rows.append(
            ("mean",)
            + tuple(self.grand_mean_minutes(g) for g in self.granularities)
        )
        headers = ("peer",) + tuple(
            ("complete file" if g == 1 else f"{g} parts")
            for g in self.granularities
        )
        return render_table(
            headers,
            rows,
            title="Figure 5 — file transmission time (minutes), 100 Mb",
        )


def _scenario(session: Session):
    """One repetition: 100 Mb x {1, 4, 16} parts to every SC."""
    times: Dict[str, float] = {}
    for label in session.sc_labels():
        client = session.client(label)
        for n_parts in GRANULARITIES:
            outcome = yield session.sim.process(
                session.broker.transfers.send_file(
                    client.advertisement(),
                    filename=f"file100-{label}-{n_parts}",
                    total_bits=FILE_BITS,
                    n_parts=n_parts,
                )
            )
            times[f"{label}/{n_parts}"] = outcome.transmission_time
    return times


def run(config: ExperimentConfig = ExperimentConfig()) -> Fig5Result:
    """Run the Figure 5 experiment."""
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return Fig5Result(summaries=average_rows(rows))
