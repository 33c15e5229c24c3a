"""Unit tests for the Figure 6 scenario machinery."""

from __future__ import annotations

import pytest

from repro.experiments import fig6_selection as f6
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import make_selector


@pytest.fixture
def warm_session():
    cfg = f6._config_with_slice(
        ExperimentConfig(seed=2007, repetitions=1)
    ).for_repetition(0)
    session = Session(cfg)

    def scenario(s):
        yield s.sim.process(f6._warmup(s))
        return None

    session.run(scenario)
    return session


class TestWarmup:
    def test_builds_history_for_every_peer(self, warm_session):
        broker = warm_session.broker
        for rec in broker.candidates():
            assert rec.perf.estimated_transfer_bps(0.0) > 0, rec.adv.name
            assert rec.perf.estimated_petition_latency() > 0, rec.adv.name

    def test_straggler_earns_cancellations(self, warm_session):
        broker = warm_session.broker
        sc7 = next(
            r for r in broker.candidates() if r.adv.name == "SC7"
        )
        assert sc7.interaction.total.transfers_cancelled > 0

    def test_fast_peers_stay_clean(self, warm_session):
        broker = warm_session.broker
        for name in ("SC4", "SC8"):
            rec = next(r for r in broker.candidates() if r.adv.name == name)
            assert rec.interaction.total.transfers_cancelled == 0, name


class TestUserTable:
    def test_quick_peer_is_the_most_responsive(self, warm_session):
        table = make_selector("quick_peer", warm_session, "fig6").table
        broker = warm_session.broker
        scores = {
            rec.adv.name: table.score(rec.peer_id)
            for rec in broker.candidates()
        }
        # SC2 is calibrated as the lowest-latency sliver.
        assert min(scores, key=scores.get) == "SC2"


class TestSelectors:
    def test_model_factory_names(self, warm_session):
        for model in f6.MODELS:
            selector = make_selector(model, warm_session, "fig6")
            assert selector is not None
        with pytest.raises(ValueError):
            make_selector("mystery", warm_session, "fig6")

    def test_quick_peer_picks_sc2(self, warm_session):
        from repro.selection.base import SelectionContext, Workload

        s = warm_session
        selector = make_selector("quick_peer", s, "fig6")
        ctx = SelectionContext(
            broker=s.broker,
            now=s.sim.now,
            workload=Workload(transfer_bits=f6.MEASURE_BITS, n_parts=4),
            candidates=s.broker.candidates(),
        )
        assert selector.select(ctx).adv.name == "SC2"

    def test_economic_avoids_quick_peers_pick(self, warm_session):
        from repro.selection.base import SelectionContext, Workload

        s = warm_session
        selector = make_selector("economic", s, "fig6")
        ctx = SelectionContext(
            broker=s.broker,
            now=s.sim.now,
            workload=Workload(transfer_bits=f6.MEASURE_BITS, n_parts=4),
            candidates=s.broker.candidates(),
        )
        pick = selector.select(ctx)
        # The lossy-but-responsive SC2 and the straggler SC7 are both
        # bad bulk choices the economic model must dodge.
        assert pick.adv.name not in ("SC2", "SC7")


class TestBackgroundCap:
    def test_concurrency_bounded(self):
        cfg = f6._config_with_slice(
            ExperimentConfig(seed=41, repetitions=1)
        ).for_repetition(0)
        session = Session(cfg)

        def scenario(s):
            sim = s.sim
            yield sim.process(f6._warmup(s))
            from repro.overlay.client import Client

            bg = Client(s.network, f6.BACKGROUND_SENDER, s.ids, name="bg")
            yield sim.process(bg.connect(s.broker.advertisement()))
            stop = sim.event()
            sim.process(f6._background(s, bg, stop))
            peak = 0
            for _ in range(20):
                yield 10.0
                peak = max(peak, bg.stats.pending_transfers)
            stop.succeed()
            return peak

        peak = session.run(scenario)
        assert 0 < peak <= f6.BACKGROUND_MAX_CONCURRENT
