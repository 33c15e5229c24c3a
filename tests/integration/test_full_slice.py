"""Integration: the full 25-node Table 1 slice comes up and works."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.overlay.client import SimpleClient
from repro.simnet.planetlab import BROKER_HOSTNAME, TABLE1_HOSTNAMES
from repro.units import mbit


@pytest.fixture(scope="module")
def full_slice():
    """A session with every Table 1 node connected as a peer."""
    session = Session(ExperimentConfig(seed=777, include_full_slice=True))
    extra = []
    sc_hosts = {c.host.hostname for c in session.clients.values()}
    for hostname in TABLE1_HOSTNAMES:
        if hostname not in sc_hosts and hostname != BROKER_HOSTNAME:
            extra.append(
                SimpleClient(session.network, hostname, session.ids, name=hostname)
            )

    def scenario(s):
        badv = s.broker.advertisement()
        for peer in list(s.clients.values()) + extra:
            yield s.sim.process(peer.connect(badv))
        return None

    session.run(scenario)
    return session, extra


class TestFullSliceDeployment:
    def test_all_25_nodes_registered(self, full_slice):
        session, extra = full_slice
        # All 25 Table 1 nodes register: 8 SCs + 17 other members
        # (the broker runs on the separate nozomi cluster head).
        assert len(session.broker.registry) == 25
        assert len(session.broker.candidates()) == 25

    def test_generic_profiles_heterogeneous(self, full_slice):
        session, extra = full_slice
        rates = {
            session.testbed.topology.node(h).up_bps
            for h in TABLE1_HOSTNAMES
        }
        overheads = {
            session.testbed.topology.node(h).overhead_s
            for h in TABLE1_HOSTNAMES
        }
        assert len(rates) > 10       # genuinely varied
        assert len(overheads) > 10

    def test_transfer_to_a_generic_member(self, full_slice):
        session, extra = full_slice
        target = extra[0]

        def scenario(s):
            outcome = yield s.sim.process(
                s.broker.transfers.send_file(
                    target.advertisement(), "slice-file", mbit(10), n_parts=2
                )
            )
            return outcome

        outcome = session.run(scenario)
        assert outcome.ok

    def test_selection_over_the_full_pool(self, full_slice):
        from repro.selection.base import SelectionContext, Workload
        from repro.selection.readytime import ReadyTimeEstimator
        from repro.selection.scheduling import SchedulingBasedSelector

        session, extra = full_slice
        ctx = SelectionContext(
            broker=session.broker,
            now=session.sim.now,
            workload=Workload(transfer_bits=mbit(20)),
            candidates=session.broker.candidates(),
        )
        assert len(ctx.candidates) == 25
        # All 25 peers are ranked, idle ones first (an earlier test in
        # this module may leave a peer's keepalive-reported queue stale).
        ranked = SchedulingBasedSelector(reserve=False).rank(ctx)
        assert sorted(r.record.adv.name for r in ranked) == sorted(
            r.adv.name for r in ctx.candidates
        )
        estimator = ReadyTimeEstimator(session.broker)
        idle = [estimator.is_idle(r.record, ctx.now) for r in ranked]
        assert any(idle) and idle == sorted(idle, reverse=True)
        # The straggler never ranks first.
        assert ranked[0].record.adv.name != "SC7"
