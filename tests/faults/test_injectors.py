"""Unit tests for the fault injectors and target resolution."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, NoRouteError
from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import (
    BrokerOutage,
    FaultPlan,
    LinkDegrade,
    LossBurst,
    NodeCrash,
    NodeSlowdown,
    Partition,
)
from repro.simnet.loss import NoLoss, PerUnitLoss


@pytest.fixture
def session() -> Session:
    return Session(ExperimentConfig(seed=11))


@pytest.fixture
def rt(session):
    """An empty fault runtime: resolution + apply/undo harness."""
    return FaultPlan(name="unit").install(session)


def sc_host(session, label):
    return session.network.host(session.testbed.sc_hostname(label))


class TestResolution:
    def test_broker_alias(self, session, rt):
        assert rt.resolve_names("broker") == (session.testbed.broker_hostname,)

    def test_sc_label(self, session, rt):
        assert rt.resolve_names("SC3") == (session.testbed.sc_hostname("SC3"),)

    def test_simpleclients_alias(self, session, rt):
        names = rt.resolve_names("simpleclients")
        assert len(names) == 8
        assert session.testbed.sc_hostname("SC1") in names

    def test_region(self, session, rt):
        names = rt.resolve_names("region:central-eu")
        topo = session.network.topology
        assert names
        for name in names:
            assert topo.node(name).site.region.name == "central-eu"

    def test_unknown_region_raises(self, rt):
        with pytest.raises(ConfigError):
            rt.resolve_names("region:atlantis")

    def test_raw_hostname(self, session, rt):
        hostname = session.testbed.sc_hostname("SC5")
        assert rt.resolve_names(hostname) == (hostname,)

    def test_unknown_hostname_raises(self, rt):
        with pytest.raises(NoRouteError):
            rt.resolve_names("no-such-host.example")

    def test_tuple_dedups_in_order(self, session, rt):
        names = rt.resolve_names(("SC2", "broker", "SC2"))
        assert names == (
            session.testbed.sc_hostname("SC2"),
            session.testbed.broker_hostname,
        )


class TestInjectors:
    def test_node_crash_apply_undo(self, session, rt):
        host = sc_host(session, "SC1")
        undo = NodeCrash(target="SC1").apply(rt)
        assert not host.is_up
        undo()
        assert host.is_up

    def test_slowdown_sets_and_restores_factor(self, session, rt):
        host = sc_host(session, "SC4")
        undo = NodeSlowdown(target="SC4", factor=25.0).apply(rt)
        assert host.slow_factor == 25.0
        undo()
        assert host.slow_factor == 1.0

    def test_link_degrade_scales_capacity(self, session, rt):
        host = sc_host(session, "SC4")
        base_up = host.up_capacity_at(session.sim.now)
        undo = LinkDegrade(target="SC4", bw_factor=0.5, latency_factor=3.0).apply(rt)
        assert host.up_capacity_at(session.sim.now) == pytest.approx(base_up * 0.5)
        assert host.link_latency_factor == 3.0
        undo()
        assert host.up_capacity_at(session.sim.now) == pytest.approx(base_up)
        assert host.link_latency_factor == 1.0

    def test_loss_burst_installs_and_restores_model(self, session, rt):
        host = sc_host(session, "SC2")
        undo = LossBurst(target="SC2", per_mb_loss=0.3).apply(rt)
        assert isinstance(host.extra_loss, PerUnitLoss)
        assert host.extra_loss.per_mb_loss == 0.3
        undo()
        assert isinstance(host.extra_loss, NoLoss)

    def test_partition_cuts_both_directions(self, session, rt):
        net = session.network
        a = session.testbed.sc_hostname("SC1")
        b = session.testbed.sc_hostname("SC2")
        undo = Partition(group_a=("SC1",), group_b=("SC2",)).apply(rt)
        assert net.is_partitioned(a, b)
        assert net.is_partitioned(b, a)
        # Hosts outside the cut stay connected.
        assert not net.is_partitioned(a, session.testbed.broker_hostname)
        undo()
        assert not net.is_partitioned(a, b)

    def test_partition_complement_when_group_b_omitted(self, session, rt):
        net = session.network
        a = session.testbed.sc_hostname("SC1")
        undo = Partition(group_a=("SC1",)).apply(rt)
        assert net.is_partitioned(a, session.testbed.broker_hostname)
        assert net.is_partitioned(a, session.testbed.sc_hostname("SC8"))
        undo()
        assert not net.is_partitioned(a, session.testbed.broker_hostname)

    def test_broker_outage(self, session, rt):
        host = session.network.host(session.testbed.broker_hostname)
        undo = BrokerOutage().apply(rt)
        assert not host.is_up
        undo()
        assert host.is_up


class TestValidation:
    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            NodeSlowdown(target="SC1", factor=0.5)

    def test_loss_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            LossBurst(target="SC1", per_mb_loss=1.5)

    def test_link_factor_zero_rejected(self):
        with pytest.raises(ConfigError):
            LinkDegrade(target="SC1", bw_factor=0.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            NodeCrash(target="SC1", duration_s=0.0)
