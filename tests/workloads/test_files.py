"""Tests for file workload descriptions."""

from __future__ import annotations

import pytest

from repro.units import mbit
from repro.workloads.files import FileSpec


class TestFileSpec:
    def test_of_mbit(self):
        f = FileSpec.of_mbit("x", 50.0)
        assert f.size_bits == mbit(50)
        assert f.size_mbit == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FileSpec(name="", size_bits=1.0)
        with pytest.raises(ValueError):
            FileSpec(name="x", size_bits=0.0)
