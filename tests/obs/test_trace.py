"""Unit tests for the bounded EventTrace recorder."""

from __future__ import annotations

import pytest

from repro.obs.export import metrics_to_dict
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
        t = EventTrace(capacity=2)
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
        t = EventTrace(capacity=3)
        for i in range(10):
            t.record("k", float(i))
        assert [e.time for e in t.events] == [7.0, 8.0, 9.0]
        assert t.seen == 10
        assert t.dropped == 7

    def test_no_drop_below_capacity(self):
        t = EventTrace(capacity=5)
        t.record("k", 0.0)
        assert t.dropped == 0


class TestValidation:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_no_capacity_keeps_every_event(self):
        t = EventTrace()
        for i in range(100):
            t.record("k", float(i))
        assert len(t) == 100 and t.seen == 100 and t.dropped == 0


class TestExport:
    def test_trace_embedded_in_metrics_dict(self):
        t = EventTrace(capacity=2)
        t.record("msg", 1.0, src="a")
        d = metrics_to_dict(MetricsRegistry(), trace=t)
        assert d["trace"]["events"] == [{"kind": "msg", "time": 1.0, "src": "a"}]
        assert d["trace"]["capacity"] == 2

class TestNetworkIntegration:
    def test_event_trace_plugs_into_network(self, sim, streams, two_node_topology):
        from repro.simnet.transport import Network

        trace = EventTrace(capacity=4)
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
