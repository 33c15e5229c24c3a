"""Tests for the structured trace every simnet ``Network`` records into."""

from __future__ import annotations

from repro.obs.trace import EventTrace


class TestTracer:
    def test_records_when_enabled(self):
        t = EventTrace(enabled=True)
        t.record("msg", 1.0, src="a")
        assert len(t) == 1
        assert t.events[0].kind == "msg"
        assert t.events[0].get("src") == "a"

    def test_disabled_records_nothing(self):
        t = EventTrace(enabled=False)
        t.record("msg", 1.0)
        assert len(t) == 0

    def test_of_kind_filters(self):
        t = EventTrace()
        t.record("a", 1.0)
        t.record("b", 2.0)
        t.record("a", 3.0)
        assert [e.time for e in t.of_kind("a")] == [1.0, 3.0]

    def test_where_predicate(self):
        t = EventTrace()
        t.record("x", 1.0, n=1)
        t.record("x", 2.0, n=5)
        assert len(t.where(lambda e: e.get("n", 0) > 2)) == 1

    def test_clear(self):
        t = EventTrace(capacity=1, policy="ring")
        t.record("x", 1.0)
        t.record("x", 2.0)
        assert t.dropped == 1
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_iteration(self):
        t = EventTrace()
        t.record("a", 1.0)
        t.record("b", 2.0)
        assert [e.kind for e in t] == ["a", "b"]
