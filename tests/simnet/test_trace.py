"""Tests for the structured trace every simnet ``Network`` records into."""

from __future__ import annotations

from repro.obs.trace import EventTrace


class TestTracer:
    def test_records_when_enabled(self):
        t = EventTrace(enabled=True)
        t.record("msg-drop-down", 1.0, dst="a")
        assert len(t) == 1
        assert t.events[0].kind == "msg-drop-down"
        assert t.events[0].get("dst") == "a"

    def test_disabled_records_nothing(self):
        t = EventTrace(enabled=False)
        t.record("msg", 1.0)
        assert len(t) == 0

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

    def test_clear(self):
        t = EventTrace(capacity=1)
        t.record("msg-drop-down", 1.0, dst="a")
        t.record("msg-drop-down", 2.0, dst="a")
        assert t.dropped == 1
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_iteration(self):
        t = EventTrace()
        t.record("fault-apply", 1.0, fault="crash", target="a")
        t.record("fault-revert", 2.0, fault="crash", target="a")
        assert [e.kind for e in t] == ["fault-apply", "fault-revert"]
