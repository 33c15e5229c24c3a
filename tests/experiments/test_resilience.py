"""Tests for the resilience matrix experiment."""

from __future__ import annotations

import math

import pytest

from repro.experiments import ExperimentConfig, resilience, steps
from repro.experiments.scenario import Session
from repro.faults import get_profile
from repro.gossip.config import GossipConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.recovery import RecoveryConfig


@pytest.fixture(scope="module")
def result():
    return resilience.run(
        ExperimentConfig(seed=2007, repetitions=1),
        profiles=("baseline", "broker_blip"),
    )


class TestResilienceRun:
    def test_rates_in_range(self, result):
        for profile in result.profiles:
            for policy in resilience.POLICIES:
                assert 0.0 <= result.completion_rate(profile, policy) <= 1.0

    def test_counts_conserved(self, result):
        # Every offered transfer resolves exactly one way: completed,
        # aborted, or censored (in flight at the run deadline).
        for profile in result.profiles:
            for policy in resilience.POLICIES:
                offered = result.offered(profile, policy)
                resolved = offered - result.censored(profile, policy)
                completed = result.completion_rate(profile, policy) * resolved
                completed += result.aborted(profile, policy)
                assert completed == pytest.approx(resolved)
                assert offered <= resilience.N_TRANSFERS

    def test_baseline_has_no_episodes(self, result):
        for policy in resilience.POLICIES:
            assert result.episodes("baseline", policy) == 0.0
            assert math.isnan(result.recovery_s("baseline", policy))

    def test_faulted_cells_see_episodes(self, result):
        for policy in resilience.POLICIES:
            assert result.episodes("broker_blip", policy) > 0.0
            assert result.recovery_s("broker_blip", policy) > 0.0

    def test_table_renders_matrix(self, result):
        out = result.table()
        assert "profile" in out and "recovery (s)" in out
        assert "censored" in out and "resumes" in out
        assert "failover (s)" in out and "goodput (Mb/s)" in out
        for profile in result.profiles:
            assert profile in out
        for policy in resilience.POLICIES:
            assert policy in out

    def test_without_recovery_no_resumes(self, result):
        for profile in result.profiles:
            for policy in resilience.POLICIES:
                assert result.resumes(profile, policy) == 0.0
                assert result.recovered_mbit(profile, policy) == 0.0
                assert math.isnan(result.failover_s(profile, policy))

    def test_goodput_retention_baseline_is_one(self, result):
        for policy in resilience.POLICIES:
            assert result.goodput_retention("baseline", policy) == (
                pytest.approx(1.0)
            )


class TestCensoring:
    def test_deadline_censors_in_flight_work(self, monkeypatch):
        # A deadline shorter than one transfer forces the in-flight
        # placement to be censored, never counted as failed.
        monkeypatch.setattr(resilience, "RUN_DEADLINE_S", 5.0)
        result = resilience.run(
            ExperimentConfig(seed=71, repetitions=1), profiles=("baseline",)
        )
        for policy in resilience.POLICIES:
            offered = result.offered("baseline", policy)
            assert result.censored("baseline", policy) == 1.0
            assert offered <= resilience.N_TRANSFERS
            assert result.aborted("baseline", policy) == 0.0
            assert math.isnan(result.completion_rate("baseline", policy))

    def test_censored_delivery_is_aborted_and_settles(self, monkeypatch):
        # With recovery on, the censored placement's supervised
        # delivery is aborted and finishes (counting itself failed)
        # before the cell returns, so nothing outlives the cell.
        monkeypatch.setattr(resilience, "RUN_DEADLINE_S", 5.0)
        config = ExperimentConfig(
            seed=71, repetitions=1, recovery=RecoveryConfig()
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            rows = Session(config).run(
                lambda s: resilience._scenario(s, "blind")
            )
        assert rows["censored"] == 1.0
        counters = registry.to_dict()["counters"]
        assert counters["swarm.downloads_failed"] == 1
        assert counters["swarm.downloads_ok"] == 0


class TestProfileSelection:
    def test_config_plan_narrows_the_matrix(self):
        config = ExperimentConfig(
            seed=3, repetitions=1, fault_plan=get_profile("straggler")
        )
        # Only the profile names are resolved here — no simulation runs.
        assert resilience.run.__defaults__  # sanity: signature unchanged
        profiles = ("baseline", "straggler")
        result = resilience.run(config, profiles=profiles)
        assert result.profiles == profiles

    def test_determinism(self, result):
        again = resilience.run(
            ExperimentConfig(seed=2007, repetitions=1),
            profiles=("baseline", "broker_blip"),
        )
        assert again.table() == result.table()


def _informed_candidates(config: ExperimentConfig, ages) -> set:
    """Names resilience's informed policies see once each SC in
    ``ages`` has been silent for its given number of seconds."""

    def scenario(s):
        yield 4 * steps.LIVENESS_S
        for label, age in ages.items():
            s.broker.record(s.client(label).peer_id).last_seen = s.sim.now - age
        return {r.adv.name for r in steps.candidates("economic", s)}

    return Session(config).run(scenario)


class TestInformedLivenessWindow:
    def test_keepalive_drops_silent_peers(self):
        names = _informed_candidates(
            ExperimentConfig(seed=5, repetitions=1),
            {"SC1": steps.LIVENESS_S, "SC2": steps.LIVENESS_S + 0.001},
        )
        assert "SC1" in names, "boundary is inclusive"
        assert "SC2" not in names
        assert len(names) == 7

    def test_gossip_keeps_silent_peers(self):
        # SWIM flips rec.online itself; with no beacons to age out a
        # recency window would only starve selection.
        names = _informed_candidates(
            ExperimentConfig(seed=5, repetitions=1, gossip=GossipConfig()),
            {"SC1": 3 * steps.LIVENESS_S},
        )
        assert len(names) == 8
