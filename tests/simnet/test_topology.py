"""Tests for topology description."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, NoRouteError
from repro.simnet.topology import NodeSpec, Region, Site, Topology


@pytest.fixture
def site_eu():
    return Site(name="lab-eu", region=Region("eu"), country="DE")


@pytest.fixture
def site_us():
    return Site(name="lab-us", region=Region("us"), country="US")


def spec(hostname, site, **kw):
    return NodeSpec(hostname=hostname, site=site, **kw)


class TestNodeSpecValidation:
    def test_defaults_valid(self, site_eu):
        s = spec("a", site_eu)
        assert s.cores == 1

    def test_empty_hostname(self, site_eu):
        with pytest.raises(ConfigError):
            spec("", site_eu)

    def test_bad_cpu(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, cpu_speed=0.0)

    def test_bad_cores(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, cores=0)

    def test_bad_rates(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, up_bps=0.0)
        with pytest.raises(ConfigError):
            spec("a", site_eu, down_bps=-1.0)

    def test_bad_overhead(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, overhead_s=-0.1)
        with pytest.raises(ConfigError):
            spec("a", site_eu, bound_handling_s=-0.1)

    def test_bad_loss(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, per_mb_loss=1.0)

    def test_bad_load_shares(self, site_eu):
        with pytest.raises(ConfigError):
            spec("a", site_eu, load_min_share=0.0)
        with pytest.raises(ConfigError):
            spec("a", site_eu, load_min_share=0.9, load_max_share=0.5)

    def test_empty_region_name(self):
        with pytest.raises(ConfigError):
            Region("")


class TestTopology:
    def test_add_and_lookup(self, site_eu):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        assert topo.node("a").hostname == "a"
        assert len(topo) == 1

    def test_duplicate_hostname_rejected(self, site_eu):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        with pytest.raises(ConfigError):
            topo.add_node(spec("a", site_eu))

    def test_unknown_node_raises(self):
        with pytest.raises(NoRouteError):
            Topology().node("ghost")

    def test_hostnames_insertion_order(self, site_eu):
        topo = Topology()
        topo.add_nodes([spec("z", site_eu), spec("a", site_eu)])
        assert topo.hostnames() == ("z", "a")

    def test_region_rtt_symmetric(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        topo.set_region_rtt("eu", "us", 0.1)
        assert topo.path("a", "b").base_one_way_s == 0.05
        assert topo.path("b", "a").base_one_way_s == 0.05

    def test_missing_rtt_raises_without_default(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        with pytest.raises(NoRouteError):
            topo.path("a", "b")

    def test_default_rtt_fallback(self, site_eu, site_us):
        topo = Topology(default_rtt=0.08)
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        assert topo.path("a", "b").base_one_way_s == 0.04

    def test_negative_rtt_rejected(self):
        with pytest.raises(ConfigError):
            Topology().set_region_rtt("a", "b", -1.0)

    def test_self_path_zero(self, site_eu):
        topo = Topology()
        topo.add_node(spec("a", site_eu, per_mb_loss=0.1))
        path = topo.path("a", "a")
        assert path.base_one_way_s == 0.0
        assert path.per_mb_loss == 0.0

    def test_path_one_way_is_half_rtt(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        topo.set_region_rtt("eu", "us", 0.1)
        assert topo.path("a", "b").base_one_way_s == pytest.approx(0.05)

    def test_one_way_follows_rtt_table_changes(self, site_eu, site_us):
        topo = Topology()
        a, b = spec("a", site_eu), spec("b", site_us)
        topo.add_nodes([a, b])
        topo.set_region_rtt("eu", "us", 0.1)
        assert topo.one_way_s(a, b) == 0.05
        assert topo.one_way_s(a, a) == 0.0
        # A table change after the first lookup is not hidden by the memo.
        topo.set_region_rtt("eu", "us", 0.3)
        assert topo.one_way_s(a, b) == 0.15
        assert topo.one_way_s(b, a) == topo.path("b", "a").base_one_way_s

    def test_path_loss_compounds(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu, per_mb_loss=0.1))
        topo.add_node(spec("b", site_us, per_mb_loss=0.2))
        topo.set_region_rtt("eu", "us", 0.1)
        expected = 1.0 - 0.9 * 0.8
        assert topo.path("a", "b").per_mb_loss == pytest.approx(expected)

    def test_validate_catches_missing_pair(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        topo.set_region_rtt("eu", "eu", 0.01)
        topo.set_region_rtt("us", "us", 0.01)
        with pytest.raises(ConfigError):
            topo.validate()

    def test_validate_passes_when_complete(self, site_eu, site_us):
        topo = Topology()
        topo.add_node(spec("a", site_eu))
        topo.add_node(spec("b", site_us))
        for pair in (("eu", "eu"), ("us", "us"), ("eu", "us")):
            topo.set_region_rtt(*pair, 0.01)
        topo.validate()  # should not raise
