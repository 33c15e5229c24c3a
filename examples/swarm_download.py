#!/usr/bin/env python
"""Swarm download: fetch one file's parts from several peers at once.

The paper's granularity result says splitting a 100 Mb file into parts
collapses transfer cost under informed selection; `repro.swarm`
generalizes it BitTorrent-style — the parts stream *concurrently*
from k selected sources, rarest-first, with choke slots ranked on
observed part throughput and endgame duplicates racing the
stragglers.  This example downloads the same file with k=1 and k=3
from identical initial conditions and shows where the speedup comes
from.

Run:  python examples/swarm_download.py
"""

from __future__ import annotations

from repro.experiments.scenario import ExperimentConfig, Session
from repro.swarm import Leg, SwarmCoordinator
from repro.units import fmt_seconds, mbit

FILE_BITS = mbit(100)
N_PARTS = 16


def download(k: int):
    """One seeded session, one k-source swarm download to SC6."""
    session = Session(ExperimentConfig(seed=13))

    def scenario(s: Session):
        sim = s.sim
        dest = s.client("SC6")

        # The origin (broker) holds the whole file; two replicas
        # mirror it.  A real deployment would rank the replica pool
        # with a selection model — see experiments/swarming.py.
        sources = [
            Leg(s.broker),
            Leg(s.client("SC4")),
            Leg(s.client("SC8")),
        ]

        def select(needed, exclude):
            return [src for src in sources if src.name not in exclude][
                :needed
            ]

        coord = SwarmCoordinator(
            s.network,
            dest.advertisement(),
            filename="dataset.tar",
            total_bits=FILE_BITS,
            n_parts=N_PARTS,
            select=select,
            k=k,
        )
        outcome = yield sim.process(coord.download())
        return outcome

    return session.run(scenario)


def main() -> None:
    for k in (1, 3):
        out = download(k)
        assert out.ok, out.reason
        by_source = {}
        for piece, _at in out.proofs:
            winner = next(
                req.source
                for req in out.requests
                if req.piece == piece
            )
            by_source[winner] = by_source.get(winner, 0) + 1
        print(f"k={k}: completed {N_PARTS} parts "
              f"in {fmt_seconds(out.completion_s)} "
              f"(last-piece tail {fmt_seconds(out.last_piece_tail_s)})")
        print(f"  sources used: {', '.join(out.sources_used)}")
        print(f"  first requests won per source: {by_source}")
        print(f"  peak concurrent streams: {out.max_active}; "
              f"endgame duplicates issued: {out.duplicate_requests} "
              f"(cancelled mid-stream: {out.duplicates_cancelled}, "
              f"redundant rounds: {out.duplicate_parts})")
        if k == 1:
            baseline = out.completion_s
        else:
            print(f"\n  speedup over k=1: {baseline / out.completion_s:.2f}x"
                  f" — concurrent streams overlap the per-part confirm"
                  f" rounds a single stream serializes.")


if __name__ == "__main__":
    main()
