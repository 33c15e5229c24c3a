"""Tests for the economic scheduling-based selector."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import online_view
from repro.gossip.config import GossipConfig
from repro.selection.base import SelectionContext, Workload
from repro.selection.hybrid import HybridSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit


def ctx_for(sim, broker, workload):
    return SelectionContext(
        broker=broker,
        now=sim.now,
        workload=workload,
        candidates=broker.candidates(),
    )


class TestRanking:
    def test_picks_fastest_for_transfer(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        rec = sel.select(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        assert rec.adv.name == "fast"

    def test_picks_fastest_cpu_for_exec(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        rec = sel.select(ctx_for(sim, broker, Workload(ops=100.0)))
        assert rec.adv.name == "fast"  # highest cpu_speed too

    def test_rank_orders_by_completion(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        ranked = sel.rank(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        names = [rc.record.adv.name for rc in ranked]
        assert names == ["fast", "medium", "slow"]
        scores = [rc.score for rc in ranked]
        assert scores == sorted(scores)


class TestIdleProvisioning:
    def test_busy_peers_skipped_when_idle_exist(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        broker.record(clients["fast"].peer_id).reserve(sim.now + 1000.0)
        rec = sel.select(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        assert rec.adv.name == "medium"

    def test_all_busy_falls_back_to_everyone(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        for c in clients.values():
            broker.record(c.peer_id).reserve(sim.now + 50.0)
        rec = sel.select(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        assert rec.adv.name == "fast"  # least completion among busy


class TestCpuTiebreak:
    def test_near_tie_broken_by_cpu_speed(self, star):
        sim, broker, clients = star
        # Force identical observed goodputs so completion estimates tie.
        for c in clients.values():
            broker.record(c.peer_id).perf.record_transfer(
                sim.now, bits=mbit(10), seconds=10.0
            )
            broker.record(c.peer_id).perf.record_petition_latency(sim.now, 0.1)
        sel = SchedulingBasedSelector(reserve=False)
        ranked = sel.rank(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        # cpu speeds: fast 1.5 > medium 1.0 > slow 0.5.
        assert [rc.record.adv.name for rc in ranked] == ["fast", "medium", "slow"]


class TestReservation:
    def test_select_reserves_winner(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=True)
        rec = sel.select(ctx_for(sim, broker, Workload(transfer_bits=mbit(10))))
        assert rec.busy_until > sim.now

    def test_sequential_selects_spread_load(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=True)
        w = Workload(transfer_bits=mbit(10))
        first = sel.select(ctx_for(sim, broker, w))
        second = sel.select(ctx_for(sim, broker, w))
        assert first.adv.name != second.adv.name

    def test_no_reserve_keeps_choice_stable(self, star):
        sim, broker, clients = star
        sel = SchedulingBasedSelector(reserve=False)
        w = Workload(transfer_bits=mbit(10))
        assert (
            sel.select(ctx_for(sim, broker, w)).adv.name
            == sel.select(ctx_for(sim, broker, w)).adv.name
        )


class TestFederatedReservation:
    @pytest.mark.parametrize(
        "make", [SchedulingBasedSelector, HybridSelector],
        ids=["economic", "hybrid"],
    )
    def test_second_selection_sees_first_commitment(self, make):
        session = Session(
            ExperimentConfig(gossip=GossipConfig(), federation_brokers=2)
        )

        def scenario(s):
            yield 0.0
            # Peers another shard owns: the head broker has no record
            # of them, so the commitment must land on the owner's.
            remote = [
                r for r in online_view("economic", s)
                if r.peer_id not in s.broker.registry
            ]
            selector = make()

            def select():
                return selector.select(SelectionContext(
                    broker=s.broker,
                    now=s.sim.now,
                    workload=Workload(transfer_bits=mbit(10)),
                    candidates=remote,
                ))

            return len(remote), select(), select(), s.sim.now

        n_remote, first, second, now = session.run(scenario)
        assert n_remote >= 2
        assert first.busy_until > now
        assert second is not first
