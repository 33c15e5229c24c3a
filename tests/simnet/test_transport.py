"""Tests for the live transport layer."""

from __future__ import annotations

import pytest

from repro.errors import HostDownError, TransferAborted
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import gate_capacity, make_two_node_topology, run_process


class Ping:
    pass


class Pong:
    pass


class TestControlMessages:
    def test_delivery_latency_includes_path_and_overhead(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        got = {}
        b.on_message(Ping, lambda dg: got.update(t=dg.latency))
        a.send(b, Ping())
        sim.run()
        # one-way 0.01 (rtt 0.02) + overhead 0.05 (deterministic cv=0).
        assert got["t"] == pytest.approx(0.06, abs=1e-6)

    def test_light_messages_use_bound_handling(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        got = {}
        b.on_message(Ping, lambda dg: got.update(t=dg.latency))
        a.send(b, Ping(), light=True)
        sim.run()
        # bound handling default 0.02 mean with jitter; well under the
        # 0.05 heavy overhead.
        assert got["t"] < 0.05

    def test_unhandled_payload_lands_in_inbox(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        a.send(b, Pong())
        sim.run()
        assert len(b.inbox) == 1

    def test_send_to_self_has_no_path_latency(self, network, sim):
        a = network.host("a.example")
        got = {}
        a.on_message(Ping, lambda dg: got.update(t=dg.latency))
        a.send(a, Ping())
        sim.run()
        assert got["t"] == pytest.approx(0.01, abs=1e-6)  # overhead only

    def test_down_receiver_drops(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        b.crash()
        a.send(b, Ping())
        sim.run()
        assert b.messages_received == 0

    def test_down_sender_raises(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        a.crash()
        with pytest.raises(HostDownError):
            a.send(b, Ping())

    def test_recover_restores_delivery(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        b.crash()
        b.recover()
        a.send(b, Ping())
        sim.run()
        assert b.messages_received == 1

    def test_counters(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        for _ in range(3):
            a.send(b, Ping())
        sim.run()
        assert a.messages_sent == 3
        assert b.messages_received == 3

    def test_lossy_path_drops_some_messages(self):
        sim = Simulator()
        topo = make_two_node_topology(loss_b=0.3)
        net = Network(sim, topo, streams=RandomStreams(5))
        a, b = net.host("a.example"), net.host("b.example")
        # Large control payloads make per-unit loss significant.
        for _ in range(200):
            a.send(b, Ping(), size_bits=mbit(2))
        sim.run()
        assert 0 < b.messages_received < 200


class TestFlows:
    def test_single_flow_duration(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        done = a.start_flow(b, mbit(10))
        sim.run(until=done)
        # 10 Mb over a 10 Mbps bottleneck (full share) = 1 s.
        assert sim.now == pytest.approx(1.0, rel=0.01)

    def test_two_flows_share_bottleneck(self):
        sim = Simulator()
        topo = make_two_node_topology()
        net = Network(sim, topo, streams=RandomStreams(5))
        a, b = net.host("a.example"), net.host("b.example")
        d1 = a.start_flow(b, mbit(10))
        d2 = a.start_flow(b, mbit(10))
        sim.run(until=sim.all_of([d1, d2]))
        # Two equal flows over 10 Mbps: each effectively 5 Mbps -> 2 s.
        assert sim.now == pytest.approx(2.0, rel=0.02)

    def test_short_flow_departure_speeds_up_survivor(self):
        sim = Simulator()
        topo = make_two_node_topology()
        net = Network(sim, topo, streams=RandomStreams(5))
        a, b = net.host("a.example"), net.host("b.example")
        big = a.start_flow(b, mbit(15))
        small = a.start_flow(b, mbit(5))
        sim.run(until=small)
        t_small = sim.now
        sim.run(until=big)
        t_big = sim.now
        # small: shares 5 Mbps until done at 1 s; big then gets 10 Mbps:
        # 15 Mb = 5 shared (1 s) + 10 alone (1 s) = 2 s.
        assert t_small == pytest.approx(1.0, rel=0.02)
        assert t_big == pytest.approx(2.0, rel=0.02)

    def test_flow_rate_limited_by_slower_end(self):
        sim = Simulator()
        topo = make_two_node_topology(up_a=10e6, up_b=2e6)
        net = Network(sim, topo, streams=RandomStreams(5))
        a, b = net.host("a.example"), net.host("b.example")
        done = a.start_flow(b, mbit(10))
        sim.run(until=done)
        assert sim.now == pytest.approx(5.0, rel=0.02)  # 2 Mbps bottleneck

    def test_flow_size_validation(self, network):
        a, b = network.host("a.example"), network.host("b.example")
        with pytest.raises(ValueError):
            a.start_flow(b, 0.0)

    def test_flow_from_down_host_raises(self, network):
        a, b = network.host("a.example"), network.host("b.example")
        a.crash()
        with pytest.raises(HostDownError):
            a.start_flow(b, mbit(1))

    def test_flow_to_down_host_streams_into_the_void(self, network, sim):
        # The sender cannot know the receiver died: the flow completes,
        # but a reliable transfer never succeeds (unit lost every attempt).
        a, b = network.host("a.example"), network.host("b.example")
        b.crash()
        p = sim.process(a.reliable_transfer(b, mbit(1), max_attempts=3))
        with pytest.raises(TransferAborted):
            sim.run(until=p)
        assert b.bits_received == 0.0

    def test_active_flow_count(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        a.start_flow(b, mbit(10))
        assert network.flows.active_flows == 1
        sim.run()
        assert network.flows.active_flows == 0


class TestReliableTransfer:
    def test_lossless_single_attempt(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        report = run_process(sim, a.reliable_transfer(b, mbit(10)))
        assert report.attempts == 1
        assert report.wasted_bits == 0.0
        assert report.duration == pytest.approx(1.0, rel=0.02)
        assert report.goodput_bps == pytest.approx(10e6, rel=0.05)

    def test_lossy_path_retries(self):
        sim = Simulator()
        topo = make_two_node_topology(loss_b=0.05)
        net = Network(sim, topo, streams=RandomStreams(3))
        a, b = net.host("a.example"), net.host("b.example")
        report = run_process(sim, a.reliable_transfer(b, mbit(50)))
        assert report.attempts > 1
        assert report.wasted_bits == mbit(50) * (report.attempts - 1)

    def test_retry_budget_exhaustion(self):
        sim = Simulator()
        topo = make_two_node_topology(loss_b=0.5)
        net = Network(sim, topo, streams=RandomStreams(3))
        a, b = net.host("a.example"), net.host("b.example")
        with pytest.raises(TransferAborted):
            run_process(sim, a.reliable_transfer(b, mbit(100), max_attempts=3))

    def test_bits_accounting(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        run_process(sim, a.reliable_transfer(b, mbit(10)))
        assert a.bits_sent == mbit(10)
        assert b.bits_received == mbit(10)

    def test_max_attempts_validation(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        gen = a.reliable_transfer(b, mbit(1), max_attempts=0)
        p = sim.process(gen)
        with pytest.raises(ValueError):
            sim.run(until=p)


class TestCompute:
    def test_duration_scales_with_ops(self, network, sim):
        a = network.host("a.example")
        d1 = run_process(sim, a.compute(10.0))
        d2 = run_process(sim, a.compute(20.0))
        assert d2 == pytest.approx(2 * d1, rel=0.01)

    def test_cpu_fifo_queueing(self, network, sim):
        a = network.host("a.example")
        ends = []

        def task(ops):
            yield sim.process(a.compute(ops))
            ends.append(sim.now)

        sim.process(task(10.0))
        sim.process(task(10.0))
        sim.run()
        # Single core: second task ends at ~2x the first.
        assert ends[1] == pytest.approx(2 * ends[0], rel=0.01)

    def test_planned_estimate_close_to_actual_mean(self, network, sim):
        a = network.host("a.example")
        actual = run_process(sim, a.compute(30.0))
        planned = a.planned_compute_seconds(30.0)
        # load shares pinned to 1.0 in this topology -> exact match.
        assert actual == pytest.approx(planned, rel=0.01)

    def test_negative_ops_rejected(self, network, sim):
        a = network.host("a.example")
        p = sim.process(a.compute(-1.0))
        with pytest.raises(ValueError):
            sim.run(until=p)


class TestNetwork:
    def test_host_created_once(self, network):
        assert network.host("a.example") is network.host("a.example")

    def test_boot_all(self, network):
        hosts = network.boot_all()
        assert {h.hostname for h in hosts} == {"a.example", "b.example"}

    def test_tracer_records_messages(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        a.send(b, Ping())
        sim.run()
        kinds = {e.kind for e in network.tracer}
        assert "msg-send" in kinds and "msg-recv" in kinds

    def test_tracer_records_exact_message_attributes(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        dgram = a.send(b, Ping())
        sim.run()
        (sent,) = network.tracer.of_kind("msg-send")
        (recv,) = network.tracer.of_kind("msg-recv")
        assert sent.get("lost") is False
        assert recv.get("latency") == dgram.latency
        token = network.add_partition({"a.example"}, {"b.example"})
        a.send(b, Ping())
        sim.run()
        assert network.tracer.of_kind("msg-send")[-1].get("lost") is True
        assert b.messages_received == 1
        network.remove_partition(token)
        a.send(b, Ping())
        sim.run()
        assert b.messages_received == 2

    def test_msg_send_lost_is_a_bool(self, network, sim):
        """``lost`` is a bool whether or not a partition is active, and
        whether or not the active one cuts the pair."""
        a, b = network.host("a.example"), network.host("b.example")
        expected = [False]
        a.send(b, Ping())
        elsewhere = network.add_partition({"a.example"}, {"c.example"})
        a.send(b, Ping())
        expected.append(False)
        cut = network.add_partition({"b.example"}, {"a.example"})
        a.send(b, Ping())
        expected.append(True)
        network.remove_partition(cut)
        network.remove_partition(elsewhere)
        a.send(b, Ping())
        expected.append(False)
        lost = [e.get("lost") for e in network.tracer.of_kind("msg-send")]
        assert lost == expected
        assert all(type(flag) is bool for flag in lost)


class TestPathLatency:
    def test_memo_is_per_region_and_skips_self_sends(self):
        from repro.simnet.topology import NodeSpec, Region, Site, Topology

        topo = Topology()
        for hostname, region in (("a", "eu"), ("b", "eu"), ("c", "us"),
                                 ("d", "us")):
            topo.add_node(NodeSpec(
                hostname=hostname, site=Site(name=hostname, region=Region(region)),
                overhead_s=0.05, overhead_cv=0.0,
            ))
        topo.set_region_rtt("eu", "eu", 0.02)
        topo.set_region_rtt("us", "us", 0.04)
        topo.set_region_rtt("eu", "us", 0.1)
        sim = Simulator()
        net = Network(sim, topo, streams=RandomStreams(6))
        a = net.host("a")
        sent = {name: [a.send(net.host(name), Ping()) for _ in range(2)]
                for name in ("a", "b", "c", "d")}
        sim.run()
        expected = {"a": 0.0, "b": 0.01, "c": 0.05, "d": 0.05}
        for name, dgrams in sent.items():
            for dgram in dgrams:
                assert dgram.latency == pytest.approx(expected[name] + 0.05)
        # One entry per region pair, however many hosts each region holds.
        assert sorted(topo._one_way) == [("eu", "eu"), ("eu", "us")]

    def test_latency_factor_applies_after_first_send(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        first = a.send(b, Ping())
        sim.run()
        b.set_link_factors(latency_factor=3.0)
        second = a.send(b, Ping())
        sim.run()
        # one-way 0.01 (x3 after the change) + overhead 0.05.
        assert first.latency == pytest.approx(0.06, abs=1e-9)
        assert second.latency == pytest.approx(0.08, abs=1e-9)


def _outage(sim, host, start, end):
    """Crash ``host`` at ``start`` and recover it at ``end``."""
    sim.call_at(start, host.crash)
    sim.call_at(end, host.recover)


class TestScheduledOutage:
    def test_outage_window_crashes_and_recovers(self, network, sim):
        b = network.host("b.example")
        _outage(sim, b, 5.0, 10.0)
        sim.run(until=6.0)
        assert not b.is_up
        sim.run(until=11.0)
        assert b.is_up

    def test_transfer_rides_through_outage(self, network, sim):
        a, b = network.host("a.example"), network.host("b.example")
        # 10 Mb at 10 Mbps would finish at ~1 s, but the receiver is
        # down until t=3: early attempts are lost, a later one lands.
        _outage(sim, b, 0.5, 3.0)
        report = run_process(sim, a.reliable_transfer(b, mbit(10)))
        assert report.attempts > 1
        assert report.finished_at >= 3.0
        assert b.bits_received == mbit(10)


class TestDiurnalIntegration:
    def test_diurnal_node_dips_at_peak(self, sim, streams):
        from repro.simnet.bandwidth import DiurnalBandwidth
        from repro.simnet.topology import NodeSpec, Region, Site, Topology

        site = Site(name="lab", region=Region("eu"))
        topo = Topology()
        topo.add_node(
            NodeSpec(
                hostname="d.example", site=site, up_bps=10e6, down_bps=10e6,
                overhead_s=0.01, overhead_cv=0.0,
                load_min_share=1.0, load_max_share=1.0,
                diurnal_depth=0.5, diurnal_peak_offset_s=0.0,
            )
        )
        topo.set_region_rtt("eu", "eu", 0.02)
        net = Network(sim, topo, streams=streams)
        host = net.host("d.example")
        off_peak = host.up_capacity_at(0.0)
        at_trough = host.up_capacity_at(DiurnalBandwidth.DAY / 2)
        assert at_trough == pytest.approx(off_peak * 0.5, rel=0.01)
        # Planning rate accounts for the average dip.
        assert host.planned_up_bps() == pytest.approx(10e6 * 0.75, rel=0.01)

    def test_diurnal_depth_validation(self):
        from repro.errors import ConfigError
        from repro.simnet.topology import NodeSpec, Region, Site

        site = Site(name="lab", region=Region("eu"))
        with pytest.raises(ConfigError):
            NodeSpec(hostname="x", site=site, diurnal_depth=1.0)


class TestZeroRateOutage:
    """Regression: a total capacity outage must not kill the scheduler.

    Pre-fix, ``FlowScheduler._schedule_timer`` took ``min()`` over an
    empty generator when every active flow reconciled to rate 0 and
    raised ValueError mid-run (or, had the timer been skipped, the flow
    would have stalled forever).
    """

    def test_flow_survives_total_capacity_outage(self):
        from repro.obs.metrics import MetricsRegistry

        sim = Simulator()
        reg = MetricsRegistry()
        net = Network(
            sim, make_two_node_topology(), streams=RandomStreams(1), metrics=reg
        )
        a, b = net.host("a.example"), net.host("b.example")
        # Collapse both access links over [5, 25): every flow between
        # the pair reconciles to rate 0 at the t=10 and t=20 ticks.
        gate_capacity(a, 5.0, 25.0, down=False)
        gate_capacity(b, 5.0, 25.0, up=False)

        done = a.start_flow(b, mbit(200))  # 20 s of streaming at 10 Mbps
        sim.run()
        net.flows.flush_metrics(reg)

        assert done.triggered
        # 10 s before the t=10 tick sees the outage, stalled through
        # the t=20 tick, capacity back at the t=30 tick, 10 s to go.
        assert sim.now == pytest.approx(40.0)
        # One stall *episode* (entered at the t=10 tick, left at t=30),
        # however many ticks poll it while it lasts.
        assert reg.counter("flow.zero_rate_windows").value == 1
        assert reg.counter("flow.finished").value == 1

    def test_arrivals_during_outage_do_not_inflate_stall_count(self):
        """Regression: the stall counter counts *transitions into* the
        all-stalled state.  Pre-fix, every reschedule while stalled
        incremented it, so a second (equally stalled) flow arriving
        mid-outage — plus every tick poll — inflated the metric."""
        from repro.obs.metrics import MetricsRegistry

        sim = Simulator()
        reg = MetricsRegistry()
        net = Network(
            sim, make_two_node_topology(), streams=RandomStreams(1), metrics=reg
        )
        a, b = net.host("a.example"), net.host("b.example")
        gate_capacity(a, 0.0, 35.0, down=False)

        def driver():
            first = a.start_flow(b, mbit(100))
            yield 15.0  # mid-outage, already stalled
            second = a.start_flow(b, mbit(100))
            yield first
            yield second

        p = sim.process(driver())
        sim.run(until=p)
        sim.run()
        net.flows.flush_metrics(reg)
        # One outage, however many arrivals and tick polls during it.
        assert reg.counter("flow.zero_rate_windows").value == 1
        assert reg.counter("flow.finished").value == 2

    def test_new_flow_during_outage_completes_after_recovery(self):
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(1))
        a, b = net.host("a.example"), net.host("b.example")
        gate_capacity(a, 0.0, 15.0, down=False)

        # Started at rate 0: pre-fix this raised immediately.
        done = a.start_flow(b, mbit(100))
        sim.run()
        assert done.triggered
        # Stalled until the t=20 tick, then 10 s of streaming.
        assert sim.now == pytest.approx(30.0)


class TestCrashDuringTransfer:
    def test_crash_mid_transfer_times_out_deterministically(self):
        """A destination crash mid-flow fails the transfer, not the sim.

        The sender cannot observe the crash: each attempt streams to
        completion, the unit counts as lost, and after ``max_attempts``
        the transfer aborts at a fully deterministic time.
        """
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(1))
        a, b = net.host("a.example"), net.host("b.example")
        sim.call_at(5.0, b.crash)

        p = sim.process(a.reliable_transfer(b, mbit(100), max_attempts=2))
        with pytest.raises(TransferAborted):
            sim.run(until=p)

        # attempt 1: stream 0-10, loss detected, stall timeout 10;
        # attempt 2: stream 20-30, stall timeout 10 -> abort at t=40.
        assert sim.now == pytest.approx(40.0)
        assert b.bits_received == 0.0
        assert a.bits_sent == 2 * mbit(100)

    def test_recovery_between_attempts_lets_transfer_finish(self):
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(1))
        a, b = net.host("a.example"), net.host("b.example")
        _outage(sim, b, 5.0, 15.0)

        report = run_process(sim, a.reliable_transfer(b, mbit(100)))
        assert report.attempts == 2
        assert report.wasted_bits == mbit(100)
        assert b.bits_received == mbit(100)


class TestHorizonSweep:
    """Stale completion-horizon entries must not accumulate across
    ticks — each re-rate pushes a fresh heap entry, and churn-heavy
    runs used to keep every superseded version until it bubbled to
    the top."""

    def test_tick_sweeps_stale_horizon_entries(self):
        sim = Simulator()
        net = Network(sim, make_two_node_topology(), streams=RandomStreams(1))
        a, b = net.host("a.example"), net.host("b.example")
        dones = []

        def driver():
            # 30 staggered arrivals on one shared link: arrival k
            # re-rates all k existing flows, so ~O(n^2) heap entries
            # go stale before the first tick.
            for _ in range(30):
                dones.append(a.start_flow(b, mbit(50)))
                yield 0.1

        p = sim.process(driver())
        sim.run(until=p)
        stale_before_tick = len(net.flows._horizon)
        # Run past the first periodic resample (tick = 10 s).
        sim.run(until=sim.now + net.flows.tick + 1.0)
        assert net.flows.horizon_swept > 0
        # Post-sweep the heap holds at most one live entry per flow.
        assert len(net.flows._horizon) <= len(net.flows._flows)
        assert len(net.flows._horizon) < stale_before_tick
        sim.run()
        assert all(d.triggered and d.ok for d in dones)
        assert net.flows.flows_finished == 30

    def test_sweep_preserves_completion_times(self):
        """The sweep must be invisible to results: the same workload
        with sweeping forced off completes at identical times."""

        def run_workload(disable_sweep):
            sim = Simulator()
            net = Network(
                sim, make_two_node_topology(), streams=RandomStreams(1)
            )
            if disable_sweep:
                net.flows._sweep_horizon = lambda: None
            a, b = net.host("a.example"), net.host("b.example")
            completions = []

            def driver():
                for i in range(20):
                    done = a.start_flow(b, mbit(50))
                    done.callbacks.append(
                        lambda _ev, i=i: completions.append((i, sim.now))
                    )
                    yield 0.3

            sim.process(driver())
            sim.run()
            return [sim.now] + completions

        assert run_workload(False) == run_workload(True)


class TestUnifiedCompletionPath:
    """Horizon-path and tick-path completions share one bookkeeping
    seam (``_complete``): counters and the goodput histogram must agree
    however a flow happens to finish."""

    def _run_single(self, flow_tick):
        from repro.obs.metrics import MetricsRegistry

        sim = Simulator()
        reg = MetricsRegistry()
        net = Network(
            sim,
            make_two_node_topology(),
            streams=RandomStreams(1),
            flow_tick=flow_tick,
            metrics=reg,
        )
        a, b = net.host("a.example"), net.host("b.example")
        done = a.start_flow(b, mbit(100))  # exactly 10 s at 10 Mbps
        sim.run()
        net.flows.flush_metrics(reg)
        assert done.triggered and done.ok
        assert sim.now == pytest.approx(10.0)
        return net.flows, reg

    def test_horizon_path_completion(self):
        # tick >> duration: the completion horizon fires first.
        flows, reg = self._run_single(flow_tick=100.0)
        assert flows.flows_finished == 1
        assert reg.counter("flow.finished").value == 1
        hist = reg.histogram("flow.goodput_mbps")
        assert hist.count == 1
        assert hist.mean == pytest.approx(10.0)

    def test_tick_path_completion(self):
        # tick == duration: the t=10 timer takes the resample branch
        # and completes the flow there.
        flows, reg = self._run_single(flow_tick=10.0)
        assert flows.flows_finished == 1
        assert reg.counter("flow.finished").value == 1
        hist = reg.histogram("flow.goodput_mbps")
        assert hist.count == 1
        assert hist.mean == pytest.approx(10.0)
