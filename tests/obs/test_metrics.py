"""Unit tests for the metrics primitives and registry."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    span,
)
from repro.obs.export import metrics_to_dict, summary_table, write_metrics
from repro.obs.runtime import active_registry, use_registry
from repro.simnet.kernel import Simulator


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_tracks_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        assert g.max_value == 3

    def test_track_max_does_not_move_value(self):
        g = Gauge("depth")
        g.track_max(7)
        assert g.value == 0
        assert g.max_value == 7


class TestHistogram:
    def test_counts_land_in_buckets(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.2)
        assert h.min == 0.5 and h.max == 100.0

    def test_mean_and_quantiles(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5,) * 9 + (50.0,):
            h.observe(v)
        assert h.mean == pytest.approx((0.5 * 9 + 50.0) / 10)
        assert h.quantile(0.5) == 1.0  # bucket upper bound
        assert h.quantile(1.0) == 100.0

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.quantile(0.5) != h.quantile(0.5)  # nan

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_boundary_value_goes_to_lower_bucket(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]
        h.observe(2.0)
        assert h.counts == [1, 1, 0]
        h.observe(2.0000001)
        assert h.counts == [1, 1, 1]
        # Below the first bound, and the infinities, land at the ends.
        h.observe(-5.0)
        h.observe(float("-inf"))
        h.observe(float("inf"))
        assert h.counts == [3, 1, 2]
        # NaN compares false against every bound: overflow, not slot 0.
        h.observe(float("nan"))
        assert h.counts == [3, 1, 3]
        assert h.count == 7

    def test_to_dict_shape(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(0.5)
        d = h.to_dict()
        assert d["count"] == 1
        assert d["buckets"] == [
            {"le": 1.0, "count": 1},
            {"le": None, "count": 0},
        ]


class TestRegistry:
    def test_instruments_are_shared_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("net.messages_sent") is reg.counter("net.messages_sent")
        assert reg.histogram("net.message_latency_s") is reg.histogram(
            "net.message_latency_s"
        )
        assert len(reg.counters()) == len(reg.histograms()) == 1

    def test_name_collision_across_kinds_rejected(self):
        reg = MetricsRegistry()
        reg.counter("net.messages_sent")
        with pytest.raises(ValueError, match="declared as a counter, not a gauge"):
            reg.gauge("net.messages_sent")

    def test_undeclared_name_rejected_with_suggestion(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="did you mean 'net.messages_sent'"):
            reg.counter("net.messages_snet")
        with pytest.raises(ValueError, match="not declared"):
            reg.histogram("no.such.metric")
        assert reg.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("flow.started").inc(2)
        b.counter("flow.started").inc(3)
        a.histogram("flow.goodput_mbps", bounds=(1.0,)).observe(0.5)
        b.histogram("flow.goodput_mbps", bounds=(1.0,)).observe(2.0)
        b.gauge("flow.active").set(9)
        a.merge(b)
        assert a.counter("flow.started").value == 5
        h = a.histogram("flow.goodput_mbps")
        assert h.count == 2 and h.counts == [1, 1]
        assert a.gauge("flow.active").max_value == 9

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("flow.goodput_mbps", bounds=(1.0,))
        b.histogram("flow.goodput_mbps", bounds=(2.0,))
        b.histogram("flow.goodput_mbps").observe(1.0)
        with pytest.raises(ValueError):
            a.merge(b)


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        reg = NullRegistry()
        assert not reg.enabled
        reg.counter("flow.started").inc()
        reg.gauge("flow.active").set(5)
        reg.histogram("flow.goodput_mbps").observe(1.0)
        assert reg.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_shared_null_registry_records_nothing(self):
        NULL_REGISTRY.counter("flow.started").inc(100)
        assert NULL_REGISTRY.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_checks_names_and_kinds_like_the_real_registry(self):
        with pytest.raises(ValueError, match="did you mean 'recovery.resumes'"):
            NULL_REGISTRY.counter("recovery.resume")
        with pytest.raises(ValueError, match="declared as a counter"):
            NULL_REGISTRY.gauge("flow.started")


class TestSpan:
    def test_span_observes_sim_time(self):
        sim = Simulator()
        reg = MetricsRegistry()
        h = reg.histogram("overlay.part_bulk_s")

        def proc():
            with span(h, sim):
                yield 2.5

        p = sim.process(proc())
        sim.run(until=p)
        assert h.count == 1
        assert h.sum == pytest.approx(2.5)

    def test_span_records_on_exception(self):
        sim = Simulator()
        h = MetricsRegistry().histogram("overlay.part_bulk_s")
        with pytest.raises(RuntimeError):
            with span(h, sim):
                raise RuntimeError("boom")
        assert h.count == 1

    def test_span_on_null_histogram_is_harmless(self):
        sim = Simulator()
        with span(NULL_REGISTRY.histogram("overlay.part_bulk_s"), sim) as sp:
            assert sp.elapsed == 0.0


class TestRuntime:
    def test_default_active_is_null(self):
        assert isinstance(active_registry(), NullRegistry)

    def test_use_registry_scopes_and_restores(self):
        reg = MetricsRegistry()
        before = active_registry()
        with use_registry(reg) as got:
            assert got is reg
            assert active_registry() is reg
        assert active_registry() is before


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("flow.started").inc(3)
        reg.histogram("flow.goodput_mbps", bounds=(1.0,)).observe(0.2)
        path = write_metrics(reg, tmp_path / "m.json")
        data = json.loads(path.read_text())
        assert data["counters"]["flow.started"] == 3
        assert data["histograms"]["flow.goodput_mbps"]["count"] == 1

    def test_csv_export(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("flow.started").inc()
        reg.gauge("flow.active").set(2)
        reg.histogram("flow.goodput_mbps", bounds=(1.0,)).observe(0.2)
        path = write_metrics(reg, tmp_path / "m.csv")
        text = path.read_text()
        assert "counter,flow.started,value,1" in text
        assert "gauge,flow.active,value,2" in text
        assert "histogram,flow.goodput_mbps,count,1" in text
        assert "le=1.0" in text

    def test_summary_table_lists_everything(self):
        reg = MetricsRegistry()
        reg.counter("kernel.events_processed").inc(7)
        reg.histogram("net.message_latency_s", DEFAULT_LATENCY_BUCKETS).observe(0.1)
        table = summary_table(reg)
        assert "kernel.events_processed" in table and "7" in table
        assert "net.message_latency_s" in table and "n=1" in table

    def test_metrics_to_dict_without_trace(self):
        d = metrics_to_dict(MetricsRegistry())
        assert "trace" not in d
