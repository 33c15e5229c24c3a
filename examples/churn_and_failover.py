#!/usr/bin/env python
"""Living with failure: churn, liveness filtering and broker failover.

Three escalating demonstrations on one deployment:

1. a peer crashes silently mid-deployment — the broker's keepalive
   liveness window drops it from the candidate set before any selector
   wastes a transfer on it;
2. the economic model keeps a stream of transfers flowing through the
   churn (compare with blind round-robin's abort count);
3. the broker itself dies — the client's failover loop rehomes it to a
   backup governor that holds a replica of the registry, and work
   continues.

Run:  python examples/churn_and_failover.py
"""

from __future__ import annotations

from repro.errors import TransferAborted
from repro.experiments.scenario import ExperimentConfig, Session
from repro.overlay.broker import Broker
from repro.overlay.peer import PeerConfig
from repro.selection.base import SelectionContext, Workload
from repro.selection.blind import RoundRobinSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit

LIVENESS_S = 90.0


def main() -> None:
    config = ExperimentConfig(
        seed=99,
        include_full_slice=True,  # the backup governor's node (Table 1)
        peer_config=PeerConfig(
            petition_timeout_s=30.0, petition_retries=2,
            confirm_timeout_s=15.0, confirm_retries=2,
        ),
    )
    session = Session(config)

    def scenario(s: Session):
        sim, broker = s.sim, s.broker

        # Build a little history first.
        for label in s.sc_labels():
            yield sim.process(
                broker.transfers.send_file(
                    s.client(label).advertisement(), f"probe-{label}", mbit(5)
                )
            )

        # -- 1. silent crash vs the liveness window -------------------
        victim = s.client("SC4")
        victim.host.crash()
        print("SC4 crashed silently (no goodbye message).")
        live_now = {r.adv.name for r in broker.candidates(liveness_timeout_s=LIVENESS_S)}
        print(f"  immediately, the broker still lists: SC4 in view = "
              f"{'SC4' in live_now}")
        yield 2.5 * LIVENESS_S
        live_later = {r.adv.name for r in broker.candidates(liveness_timeout_s=LIVENESS_S)}
        print(f"  after the liveness window lapses:    SC4 in view = "
              f"{'SC4' in live_later}")

        # -- 2. churn shoot-out ----------------------------------------
        def run_stream(name, selector, candidates_fn, n=6):
            ok = aborted = 0
            for i in range(n):
                candidates = candidates_fn()
                ctx = SelectionContext(
                    broker=broker, now=sim.now,
                    workload=Workload(transfer_bits=mbit(10), n_parts=2),
                    candidates=candidates,
                )
                record = selector.select(ctx)
                try:
                    yield sim.process(
                        broker.transfers.send_file(
                            record.adv, f"{name}-{i}", mbit(10), n_parts=2
                        )
                    )
                    ok += 1
                except TransferAborted:
                    aborted += 1
            print(f"  {name:10s}: {ok} completed, {aborted} aborted")

        print("\nstream of 6 transfers while SC4 is dead:")
        yield sim.process(run_stream(
            "blind", RoundRobinSelector(),
            lambda: broker.candidates(online_only=False),
        ))
        yield sim.process(run_stream(
            "economic", SchedulingBasedSelector(reserve=False),
            lambda: broker.candidates(liveness_timeout_s=LIVENESS_S),
        ))
        victim.host.recover()

        # -- 3. broker failover ------------------------------------------
        backup = Broker(
            s.network, "planetlab2.upc.es", s.ids, name="backup-broker"
        )
        client = s.client("SC2")
        broker.replicate_to(backup.advertisement())
        backup.replicate_to(broker.advertisement())
        client.enable_failover(
            [backup.advertisement()], check_interval_s=30.0, ping_timeout_s=10.0
        )
        print("\nbackup governor replicating; SC2 watching its broker...")
        broker.host.crash()
        print("primary broker crashed.")
        yield 120.0
        print(f"  SC2 online: {client.online}; now homed at: "
              f"{client.broker_adv.name}")
        print(f"  SC2 registered at backup: {client.peer_id in backup.registry}")
        return None

    session.run(scenario)


if __name__ == "__main__":
    main()
