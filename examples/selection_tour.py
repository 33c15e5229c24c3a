#!/usr/bin/env python
"""A tour of the three peer-selection models on one live overlay.

Builds history with probe transfers, then asks each model — economic
scheduling, data evaluator (same priority) and user's preference
(quick peer) — to rank the same candidate set for the same workload,
and prints what each model sees and picks.

Run:  python examples/selection_tour.py
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.base import SelectionContext, Workload
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.preference import PreferenceTable, UserPreferenceSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit


def main() -> None:
    session = Session(ExperimentConfig(seed=7))

    def scenario(s: Session):
        broker = s.broker

        # Build genuine history: one probe transfer per peer.
        for label in s.sc_labels():
            yield s.sim.process(
                broker.transfers.send_file(
                    s.client(label).advertisement(), f"probe-{label}",
                    mbit(10), n_parts=2,
                )
            )

        workload = Workload(transfer_bits=mbit(100), n_parts=4)
        ctx = SelectionContext(
            broker=broker,
            now=s.sim.now,
            workload=workload,
            candidates=broker.candidates(),
        )

        selectors = [
            SchedulingBasedSelector(reserve=False),
            DataEvaluatorSelector("same_priority"),
            UserPreferenceSelector(
                PreferenceTable.quick_peer(broker.observed, 0.0, s.sim.now)
            ),
        ]

        for selector in selectors:
            ranked = selector.rank(ctx)
            rows = [
                (i + 1, rc.record.adv.name, rc.score)
                for i, rc in enumerate(ranked)
            ]
            print()
            print(render_table(
                ("rank", "peer", "score (lower=better)"),
                rows,
                title=f"model: {selector.name} -> picks "
                      f"{ranked[0].record.adv.name}",
            ))

        # What the broker actually knows about each peer.
        rows = []
        for rec in broker.candidates():
            rows.append(
                (
                    rec.adv.name,
                    rec.perf.estimated_transfer_bps(0.0) / 1e6,
                    rec.perf.estimated_petition_latency(0.0),
                    rec.pending_transfers,
                )
            )
        print()
        print(render_table(
            ("peer", "observed goodput (Mbps)", "petition latency (s)",
             "pending transfers"),
            rows,
            title="broker's historical data (what the models consume)",
        ))
        return None

    session.run(scenario)


if __name__ == "__main__":
    main()
