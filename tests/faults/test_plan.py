"""Tests for FaultPlan / FaultRuntime: timelines, episodes, metrics."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import (
    ExponentialChurn,
    FaultPlan,
    NodeCrash,
    NodeRestart,
    PROFILES,
    RandomWindows,
    get_profile,
)
from repro.obs import MetricsRegistry, use_registry


def run_session(config, horizon_s=60.0):
    session = Session(config)

    def scenario(_session):
        yield horizon_s
        return {}

    session.run(scenario)
    return session


class TestLifecycle:
    def test_scheduled_crash_recovers_and_closes_episode(self):
        plan = FaultPlan(
            name="t", schedule=((10.0, NodeCrash(target="SC1", duration_s=5.0)),)
        )
        session = run_session(
            ExperimentConfig(seed=7, repetitions=1, fault_plan=plan)
        )
        rt = session.faults
        assert rt.episode_count() == 1
        episode = rt.episodes[0]
        assert episode.kind == "node_crash"
        assert episode.recovery_s == pytest.approx(5.0)
        assert not episode.censored
        assert session.client("SC1").host.is_up

    def test_explicit_restart_closes_crash_episode(self):
        plan = FaultPlan(
            name="t",
            schedule=(
                (5.0, NodeCrash(target="SC2")),
                (12.0, NodeRestart(target="SC2")),
            ),
        )
        session = run_session(
            ExperimentConfig(seed=7, repetitions=1, fault_plan=plan)
        )
        rt = session.faults
        # NodeRestart opens no episode of its own.
        assert rt.episode_count() == 1
        assert rt.episodes[0].recovery_s == pytest.approx(7.0)
        assert session.client("SC2").host.is_up

    def test_open_episode_censored_at_finalize(self):
        plan = FaultPlan(name="t", schedule=((10.0, NodeCrash(target="SC3")),))
        session = run_session(
            ExperimentConfig(seed=7, repetitions=1, fault_plan=plan),
            horizon_s=30.0,
        )
        rt = session.faults
        assert rt.episode_count() == 1
        episode = rt.episodes[0]
        assert episode.censored
        assert episode.ended_at == pytest.approx(session.sim.now)
        # Censored recovery is still a (lower-bound) observation.
        assert not math.isnan(rt.mean_recovery_s())

    def test_trace_events_emitted(self):
        plan = FaultPlan(
            name="t", schedule=((10.0, NodeCrash(target="SC1", duration_s=5.0)),)
        )
        session = run_session(
            ExperimentConfig(seed=7, repetitions=1, trace=True, fault_plan=plan)
        )
        applies = session.tracer.of_kind("fault-apply")
        reverts = session.tracer.of_kind("fault-revert")
        assert len(applies) == 1 and len(reverts) == 1
        assert applies[0].get("fault") == "node_crash"
        assert applies[0].get("target") == "SC1"
        assert reverts[0].time - applies[0].time == pytest.approx(5.0)

    def test_base_in_the_past_rejected(self):
        session = Session(ExperimentConfig(seed=7))
        session.sim.call_at(5.0, lambda: None)
        session.sim.run(until=5.0)
        with pytest.raises(ConfigError):
            FaultPlan(name="t").install(session, base=1.0)


class TestMetrics:
    def test_episode_and_recovery_instruments(self):
        plan = FaultPlan(
            name="t",
            schedule=(
                (5.0, NodeCrash(target="SC1", duration_s=4.0)),
                (20.0, NodeCrash(target="SC2")),  # censored at end
            ),
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            run_session(
                ExperimentConfig(seed=7, repetitions=1, fault_plan=plan)
            )
        assert registry.counters()["fault.episodes"].value == 2.0
        assert registry.gauges()["fault.active"].value == 0.0
        recovery = registry.histograms()["fault.recovery_s"]
        assert recovery.count == 2
        assert recovery.min == pytest.approx(4.0)


class TestDeterminism:
    def _timeline(self, seed, profile="flaky_links"):
        session = run_session(
            ExperimentConfig(
                seed=seed, repetitions=1, fault_plan=get_profile(profile)
            ),
            horizon_s=1.0,
        )
        return session.faults.timeline_summary()

    def test_same_seed_same_timeline(self):
        assert self._timeline(5) == self._timeline(5)

    def test_different_seed_different_timeline(self):
        assert self._timeline(5) != self._timeline(6)

    def test_timeline_sorted_and_nonempty(self):
        timeline = self._timeline(5)
        assert timeline
        times = [t for t, _, _ in timeline]
        assert times == sorted(times)


class TestSerialization:
    def test_profiles_roundtrip(self):
        for name in PROFILES:
            plan = get_profile(name)
            assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_schedule_roundtrip(self):
        plan = FaultPlan(
            name="mixed",
            schedule=((3.0, NodeCrash(target=("SC1", "SC2"), duration_s=2.0)),),
            processes=(
                ExponentialChurn(targets=("SC3",), horizon_s=100.0),
                RandomWindows(fault=NodeCrash(target="SC4"), horizon_s=100.0),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_config_roundtrip_with_plan(self):
        config = ExperimentConfig(
            seed=3,
            repetitions=2,
            fault_plan=get_profile("straggler"),
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_fault_kind_rejected(self):
        from repro.faults import fault_from_dict

        with pytest.raises(ConfigError):
            fault_from_dict({"kind": "meteor_strike"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            get_profile("nope")
