"""Integration: mixed concurrent workloads on one deployment.

Transfers, tasks and peer-to-peer traffic all run at once; the system must stay consistent and the accounting must add up.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.units import mbit


class TestMixedWorkload:
    def test_everything_at_once(self):
        session = Session(ExperimentConfig(seed=20))

        def scenario(s):
            sim, broker = s.sim, s.broker
            procs = []
            outcomes = {"transfers": [], "tasks": []}

            def transfer(adv, size, parts):
                out = yield sim.process(
                    broker.transfers.send_file(adv, f"mx-{adv.name}", size,
                                               n_parts=parts)
                )
                outcomes["transfers"].append(out)

            def task(adv, ops):
                out = yield sim.process(
                    broker.tasks.submit(adv, f"job-{adv.name}", ops=ops)
                )
                outcomes["tasks"].append(out)

            # Broker fans out transfers and tasks simultaneously.
            for label in ("SC2", "SC4", "SC6"):
                adv = s.client(label).advertisement()
                procs.append(sim.process(transfer(adv, mbit(10), 2)))
                procs.append(sim.process(task(adv, 30.0)))
            # Peer-to-peer traffic at the same time.
            sc8 = s.client("SC8")
            sc4 = s.client("SC4")
            procs.append(
                sim.process(
                    sc8.transfers.send_file(
                        sc4.advertisement(), "p2p.bin", mbit(6), n_parts=2
                    )
                )
            )
            yield sim.all_of(procs)
            yield 60.0
            return outcomes

        outcomes = session.run(scenario)
        assert len(outcomes["transfers"]) == 3
        assert all(o.ok for o in outcomes["transfers"])
        assert len(outcomes["tasks"]) == 3
        assert all(o.ok for o in outcomes["tasks"])
        # Quiescence.
        assert session.network.flows.active_flows == 0
        assert session.broker.stats.pending_transfers == 0
        for client in session.clients.values():
            assert client.stats.pending_tasks == 0
            assert client.host.cpu.in_use == 0

    def test_contention_slows_concurrent_transfers(self):
        """Two simultaneous transfers to one peer each run slower than
        a solo transfer, but faster than strictly serial."""
        session = Session(ExperimentConfig(seed=21))

        def scenario(s):
            sim, broker = s.sim, s.broker
            adv = s.client("SC4").advertisement()
            solo = yield sim.process(
                broker.transfers.send_file(adv, "solo", mbit(10), n_parts=1)
            )
            start = sim.now
            p1 = sim.process(
                broker.transfers.send_file(adv, "dual-a", mbit(10), n_parts=1)
            )
            p2 = sim.process(
                broker.transfers.send_file(adv, "dual-b", mbit(10), n_parts=1)
            )
            yield sim.all_of([p1, p2])
            dual_elapsed = sim.now - start
            return solo.transmission_time, dual_elapsed

        solo_t, dual_t = session.run(scenario)
        assert dual_t > solo_t  # they really contended
        # Retransmission noise aside, sharing shouldn't be worse than
        # ~2.5x a solo run on average.
        assert dual_t < 6.0 * solo_t
