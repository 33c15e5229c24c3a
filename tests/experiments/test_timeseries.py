"""Tests for trace time-series aggregation."""

from __future__ import annotations

import pytest

from repro.analysis.timeseries import (
    BucketSeries,
    bucket_counts,
    bucket_sums,
    goodput_series,
)
from repro.obs.trace import EventTrace


@pytest.fixture
def tracer():
    t = EventTrace()
    for time, size in ((1.0, 10.0), (2.5, 20.0), (11.0, 30.0), (29.0, 40.0)):
        t.record("transfer-done", time, size_bits=size)
    t.record("msg-send", 5.0)
    return t


class TestBucketCounts:
    def test_counts_land_in_right_buckets(self, tracer):
        series = bucket_counts(tracer, "transfer-done", bucket_s=10.0)
        # Events at 1.0/2.5 -> bucket 0; 11.0 -> bucket 1; 29.0 -> bucket 2.
        assert series.values == (2.0, 1.0, 1.0)
        assert series.total == 4.0

    def test_explicit_window_filters(self, tracer):
        series = bucket_counts(
            tracer, "transfer-done", bucket_s=10.0, start=0.0, end=15.0
        )
        assert series.total == 3.0

    def test_missing_kind_empty(self, tracer):
        series = bucket_counts(tracer, "nothing", bucket_s=10.0)
        assert len(series) == 0
        assert series.total == 0.0

    def test_validation(self, tracer):
        with pytest.raises(ValueError):
            bucket_counts(tracer, "transfer-done", bucket_s=0.0)
        with pytest.raises(ValueError):
            bucket_counts(tracer, "transfer-done", bucket_s=1.0, start=10.0, end=5.0)


class TestBucketSums:
    def test_sums_attribute(self, tracer):
        series = bucket_sums(tracer, "transfer-done", "size_bits", bucket_s=10.0)
        assert series.values == (30.0, 30.0, 40.0)

    def test_missing_attribute_counts_zero(self, tracer):
        series = bucket_sums(tracer, "msg-send", "size_bits", bucket_s=10.0)
        assert series.total == 0.0


class TestGoodputSeries:
    def test_rates_scaled_by_bucket(self, tracer):
        series = goodput_series(tracer, bucket_s=10.0)
        assert series.values[0] == pytest.approx(3.0)  # 30 bits / 10 s

    def test_integrates_with_live_network(self, network, sim):
        from repro.units import mbit
        from tests.conftest import run_process

        a, b = network.host("a.example"), network.host("b.example")
        run_process(sim, a.reliable_transfer(b, mbit(10)))
        series = goodput_series(network.tracer, bucket_s=1.0)
        assert series.total * 1.0 == pytest.approx(mbit(10), rel=0.01)


class TestBucketSeries:
    def test_bucket_start_and_peak(self):
        s = BucketSeries(start=5.0, bucket_s=2.0, values=(1.0, 4.0, 2.0))
        assert s.bucket_start(1) == 7.0
        assert s.peak == 4.0
        with pytest.raises(IndexError):
            s.bucket_start(3)

    def test_sparkline_shape(self):
        s = BucketSeries(start=0.0, bucket_s=1.0, values=(0.0, 5.0, 10.0))
        spark = s.sparkline()
        assert len(spark) == 3

    def test_empty_sparkline(self):
        s = BucketSeries(start=0.0, bucket_s=1.0, values=())
        assert s.sparkline() == ""
