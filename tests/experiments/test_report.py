"""Tests for ASCII report rendering."""

from __future__ import annotations

from repro.experiments.report import render_table


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        out = render_table(("peer", "time"), [("SC1", 12.86), ("SC2", 0.04)])
        assert "peer" in out and "time" in out
        assert "SC1" in out and "12.86" in out

    def test_title_on_first_line(self):
        out = render_table(("a",), [(1,)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_alignment_consistent(self):
        out = render_table(("x", "y"), [("a", 1.0), ("bbbb", 22.0)])
        lines = [l for l in out.splitlines() if "|" in l]
        widths = {l.index("|") for l in lines}
        assert len(widths) == 1

    def test_float_formatting(self):
        out = render_table(("v",), [(1.23456,)])
        assert "1.23" in out and "1.2345" not in out
