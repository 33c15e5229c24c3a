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

    def test_clear(self):
        t = EventTrace(capacity=1)
        t.record("msg-drop-down", 1.0, dst="a")
        t.record("msg-drop-down", 2.0, dst="a")
        assert t.dropped == 1
        t.clear()
        assert len(t) == 0 and t.dropped == 0
