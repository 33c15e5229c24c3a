"""Tests for summary statistics."""

from __future__ import annotations

import pytest

from repro.analysis.stats import summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.n == 3
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.std == pytest.approx(1.0)

    def test_singleton_has_zero_std(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

