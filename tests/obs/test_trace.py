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
        t.record("msg-drop-down", 1.0, dst="a")
        t.record("msg-drop-down", 2.0, dst="b")
        t.record("selection-degraded", 3.0, model="economic")
        assert len(t) == 3
        assert [e.kind for e in t] == [
            "msg-drop-down", "msg-drop-down", "selection-degraded"
        ]
        assert t.of_kind("msg-drop-down")[1].get("dst") == "b"
        assert t.last("selection-degraded").time == 3.0
        assert t.where(lambda e: e.time > 1.5)[0].time == 2.0

    def test_disabled_records_nothing(self):
        t = EventTrace(enabled=False)
        # Undeclared on purpose: a disabled trace checks nothing.
        t.record("msg", 1.0)
        assert len(t) == 0 and t.seen == 0

    def test_undeclared_event_rejected_with_suggestion(self):
        t = EventTrace()
        with pytest.raises(ValueError, match="did you mean 'swarm-piece'"):
            t.record("swarm-peice", 1.0)
        assert t.seen == 0

    def test_missing_required_field_rejected(self):
        t = EventTrace()
        with pytest.raises(ValueError, match=r"missing required field\(s\) \['lost'\]"):
            t.record("msg-send", 1.0, src="a", dst="b", payload_kind="Ping")
        t.record("msg-send", 1.0, src="a", dst="b", payload_kind="Ping", lost=False)
        assert len(t) == 1

    def test_clear_resets(self):
        t = EventTrace(capacity=2)
        for i in range(5):
            t.record("msg-drop-down", float(i), dst="a")
        t.clear()
        assert len(t) == 0 and t.dropped == 0 and t.seen == 0

    def test_last(self):
        t = EventTrace()
        assert t.last("msg-drop-down") is None
        t.record("msg-drop-down", 1.0, dst="a")
        t.record("msg-drop-down", 2.0, dst="a")
        assert t.last("msg-drop-down").time == 2.0

    def test_event_get_default(self):
        e = TraceEvent(kind="k", time=0.0, attrs={})
        assert e.get("missing", "dflt") == "dflt"

    def test_of_kind_filters(self):
        t = EventTrace()
        t.record("fault-apply", 1.0, fault="crash", target="a")
        t.record("fault-revert", 2.0, fault="crash", target="a")
        t.record("fault-apply", 3.0, fault="crash", target="b")
        assert [e.time for e in t.of_kind("fault-apply")] == [1.0, 3.0]

    def test_where_predicate(self):
        t = EventTrace()
        t.record("msg-drop-down", 1.0, dst="a", n=1)
        t.record("msg-drop-down", 2.0, dst="a", n=5)
        assert len(t.where(lambda e: e.get("n", 0) > 2)) == 1

    def test_iteration(self):
        t = EventTrace()
        t.record("fault-apply", 1.0, fault="crash", target="a")
        t.record("fault-revert", 2.0, fault="crash", target="a")
        assert [e.kind for e in t] == ["fault-apply", "fault-revert"]


class TestRing:
    def test_keeps_most_recent_window(self):
        t = EventTrace(capacity=3)
        for i in range(10):
            t.record("msg-drop-down", float(i), dst="a")
        assert [e.time for e in t.events] == [7.0, 8.0, 9.0]
        assert t.seen == 10
        assert t.dropped == 7

    def test_no_drop_below_capacity(self):
        t = EventTrace(capacity=5)
        t.record("msg-drop-down", 0.0, dst="a")
        assert t.dropped == 0


class TestValidation:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_no_capacity_keeps_every_event(self):
        t = EventTrace()
        for i in range(100):
            t.record("msg-drop-down", float(i), dst="a")
        assert len(t) == 100 and t.seen == 100 and t.dropped == 0


class TestExport:
    def test_trace_embedded_in_metrics_dict(self):
        t = EventTrace(capacity=2)
        t.record("msg-drop-down", 1.0, dst="a")
        d = metrics_to_dict(MetricsRegistry(), trace=t)
        assert d["trace"]["events"] == [
            {"kind": "msg-drop-down", "time": 1.0, "dst": "a"}
        ]
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
