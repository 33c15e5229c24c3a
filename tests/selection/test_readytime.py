"""Tests for the ready-time estimator."""

from __future__ import annotations

import pytest

from repro.selection.base import Workload
from repro.selection.readytime import ReadyTimeEstimator
from repro.units import mbit

from tests.conftest import run_process


class TestEstimate:
    def test_transfer_estimate_prefers_faster_planned_rate(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        w = Workload(transfer_bits=mbit(10))
        fast = est.estimate(broker.record(clients["fast"].peer_id), w, sim.now)
        slow = est.estimate(broker.record(clients["slow"].peer_id), w, sim.now)
        assert fast.service_seconds < slow.service_seconds
        assert fast.completion_at < slow.completion_at

    def test_exec_estimate_scales_with_ops(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["fast"].peer_id)
        small = est.estimate(rec, Workload(ops=10.0), sim.now)
        big = est.estimate(rec, Workload(ops=20.0), sim.now)
        assert big.service_seconds == pytest.approx(
            2 * small.service_seconds, rel=0.01
        )

    def test_empty_workload_zero_service(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["fast"].peer_id)
        e = est.estimate(rec, Workload(), sim.now)
        assert e.service_seconds == 0.0
        assert e.completion_at == e.ready_at

    def test_history_sharpens_estimate(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["medium"].peer_id)
        before = est.estimate(rec, Workload(transfer_bits=mbit(10)), sim.now)
        # Observed goodput much lower than the planning rate.
        rec.perf.record_transfer(sim.now, bits=mbit(10), seconds=100.0)
        after = est.estimate(rec, Workload(transfer_bits=mbit(10)), sim.now)
        assert after.service_seconds > before.service_seconds


class TestBacklogAndIdle:
    def test_reservation_pushes_ready_time(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["fast"].peer_id)
        broker.record(rec.peer_id).reserve(sim.now + 30.0)
        e = est.estimate(rec, Workload(), sim.now)
        assert e.ready_at >= sim.now + 30.0

    def test_pending_tasks_add_backlog(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["fast"].peer_id)
        assert est.backlog_seconds(rec) == 0.0
        rec.pending_tasks = 2
        assert est.backlog_seconds(rec) > 0.0

    def test_own_open_transfers_discounted(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        client = clients["fast"]
        rec = broker.record(client.peer_id)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(2)),
        )
        # The peer's keepalive will report 1 pending transfer — ours.
        rec.pending_transfers = 1
        assert est.external_pending_transfers(rec) == 0
        assert est.is_idle(rec, sim.now)
        # A second (foreign) pending transfer counts.
        rec.pending_transfers = 2
        assert est.external_pending_transfers(rec) == 1
        assert not est.is_idle(rec, sim.now)
        handle.close()

    def test_idle_respects_pending_tasks(self, star):
        sim, broker, clients = star
        est = ReadyTimeEstimator(broker)
        rec = broker.record(clients["fast"].peer_id)
        rec.pending_tasks = 1
        assert not est.is_idle(rec, sim.now)
