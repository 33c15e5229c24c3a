"""Unit tests for the bounded EventTrace recorder."""

from __future__ import annotations

import pytest

from repro.obs.export import metrics_to_dict, write_trace_csv
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTrace
from repro.simnet.trace import TraceEvent


class TestUnbounded:
    def test_records_like_tracer(self):
        t = EventTrace()
        t.record("msg", 1.0, src="a")
        t.record("msg", 2.0, src="b")
        t.record("flow", 3.0)
        assert len(t) == 3
        assert [e.kind for e in t] == ["msg", "msg", "flow"]
        assert t.of_kind("msg")[1].get("src") == "b"
        assert t.last("flow").time == 3.0
        assert t.where(lambda e: e.time > 1.5)[0].time == 2.0

    def test_disabled_records_nothing(self):
        t = EventTrace(enabled=False)
        t.record("msg", 1.0)
        assert len(t) == 0 and t.seen == 0

    def test_clear_resets(self):
        t = EventTrace(capacity=2, policy="ring")
        for i in range(5):
            t.record("k", float(i))
        t.clear()
        assert len(t) == 0 and t.dropped == 0 and t.seen == 0

    def test_last(self):
        t = EventTrace()
        assert t.last("x") is None
        t.record("x", 1.0)
        t.record("x", 2.0)
        assert t.last("x").time == 2.0

    def test_event_get_default(self):
        e = TraceEvent(kind="k", time=0.0, attrs={})
        assert e.get("missing", "dflt") == "dflt"


class TestRing:
    def test_keeps_most_recent_window(self):
        t = EventTrace(capacity=3, policy="ring")
        for i in range(10):
            t.record("k", float(i))
        assert [e.time for e in t.events] == [7.0, 8.0, 9.0]
        assert t.seen == 10
        assert t.dropped == 7

    def test_no_drop_below_capacity(self):
        t = EventTrace(capacity=5, policy="ring")
        t.record("k", 0.0)
        assert t.dropped == 0


class TestReservoir:
    def test_bounded_uniform_sample_in_time_order(self):
        t = EventTrace(capacity=10, policy="reservoir", seed=7)
        for i in range(1000):
            t.record("k", float(i))
        events = t.events
        assert len(events) == 10
        assert t.seen == 1000 and t.dropped == 990
        times = [e.time for e in events]
        assert times == sorted(times)
        # A uniform sample of 0..999 should not be the first 10.
        assert max(times) > 10

    def test_deterministic_for_fixed_seed(self):
        def sample(seed):
            t = EventTrace(capacity=5, policy="reservoir", seed=seed)
            for i in range(200):
                t.record("k", float(i))
            return [e.time for e in t.events]

        assert sample(3) == sample(3)


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=5, policy="lifo")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_no_capacity_means_policy_all(self):
        t = EventTrace(policy="ring")
        assert t.policy == "all"


class TestExport:
    def test_trace_embedded_in_metrics_dict(self):
        t = EventTrace(capacity=2, policy="ring")
        t.record("msg", 1.0, src="a")
        d = metrics_to_dict(MetricsRegistry(), trace=t)
        assert d["trace"]["events"] == [{"kind": "msg", "time": 1.0, "src": "a"}]
        assert d["trace"]["policy"] == "ring"

    def test_csv_has_union_of_attr_columns(self, tmp_path):
        t = EventTrace()
        t.record("msg", 1.0, src="a")
        t.record("flow", 2.0, bits=100)
        path = write_trace_csv(t, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,time,src,bits"
        assert lines[1].startswith("msg,1.0,a,")
        assert lines[2].startswith("flow,2.0,,100")


class TestNetworkIntegration:
    def test_event_trace_plugs_into_network(self, sim, streams, two_node_topology):
        from repro.simnet.transport import Network

        trace = EventTrace(capacity=4, policy="ring")
        net = Network(sim, two_node_topology, streams=streams, tracer=trace)
        a, b = net.host("a.example"), net.host("b.example")

        class Ping:
            pass

        for _ in range(10):
            a.send(b, Ping())
        sim.run()
        assert trace.seen == 20  # send + recv per message
        assert len(trace) == 4
        assert trace.last("msg-recv") is not None
