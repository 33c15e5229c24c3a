"""Tests for the blind baseline."""

from __future__ import annotations

from repro.selection.base import SelectionContext, Workload
from repro.selection.blind import RoundRobinSelector


def ctx_for(sim, broker):
    return SelectionContext(
        broker=broker,
        now=sim.now,
        workload=Workload(),
        candidates=broker.candidates(),
    )


class TestRoundRobinSelector:
    def test_cycles_in_name_order(self, star):
        sim, broker, clients = star
        sel = RoundRobinSelector()
        names = [sel.select(ctx_for(sim, broker)).adv.name for _ in range(6)]
        assert names == ["fast", "medium", "slow", "fast", "medium", "slow"]

