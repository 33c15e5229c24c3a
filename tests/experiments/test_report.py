"""Tests for ASCII report rendering."""

from __future__ import annotations

import pytest

from repro.experiments.report import render_bars, render_table


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


class TestRenderBars:
    def test_bars_scale_to_peak(self):
        out = render_bars({"a": 10.0, "b": 5.0}, width=20)
        lines = out.splitlines()
        a_hashes = lines[0].count("#")
        b_hashes = lines[1].count("#")
        assert a_hashes == 20
        assert b_hashes == 10

    def test_zero_values_ok(self):
        out = render_bars({"a": 0.0})
        assert "0.00" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_bars({})

    def test_unit_suffix(self):
        out = render_bars({"a": 1.0}, unit=" s")
        assert "1.00 s" in out


class TestRenderGroupedBars:
    def test_groups_and_series_present(self):
        from repro.experiments.report import render_grouped_bars

        out = render_grouped_bars(
            {"SC1": {"whole": 10.0, "16 parts": 2.0},
             "SC2": {"whole": 5.0, "16 parts": 1.0}},
            unit=" min",
        )
        assert "SC1" in out and "SC2" in out
        assert "whole" in out and "16 parts" in out
        assert "10.00 min" in out

    def test_shared_scale(self):
        from repro.experiments.report import render_grouped_bars

        out = render_grouped_bars(
            {"a": {"x": 10.0}, "b": {"x": 5.0}}, width=20
        )
        lines = [l for l in out.splitlines() if "#" in l]
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_empty_rejected(self):
        from repro.experiments.report import render_grouped_bars

        import pytest
        with pytest.raises(ValueError):
            render_grouped_bars({})
