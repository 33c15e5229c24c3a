"""Tests for unit helpers."""

from __future__ import annotations

import pytest

from repro.units import (
    fmt_minutes,
    fmt_seconds,
    mbit,
    to_mbit,
    to_minutes,
)


class TestConversions:
    def test_mbit_roundtrip(self):
        assert to_mbit(mbit(50)) == pytest.approx(50.0)

    def test_mbit_value(self):
        assert mbit(1) == 1_000_000.0

    def test_to_minutes(self):
        assert to_minutes(102.0) == pytest.approx(1.7)


class TestFormatting:
    def test_fmt_seconds(self):
        assert fmt_seconds(12.857) == "12.86 s"

    def test_fmt_minutes(self):
        assert fmt_minutes(102.0) == "1.70 min"
