"""Tests for experiment scenario wiring."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.scenario import ExperimentConfig, Session


def _full_config() -> ExperimentConfig:
    """A config setting every nested section at once."""
    from repro.faults import ExponentialChurn, FaultPlan
    from repro.faults.profiles import get_profile
    from repro.gossip.config import GossipConfig
    from repro.overlay.peer import PeerConfig
    from repro.recovery.config import RecoveryConfig

    return ExperimentConfig(
        seed=99,
        repetitions=3,
        include_full_slice=True,
        peer_config=PeerConfig(petition_timeout_s=42.0),
        recovery=RecoveryConfig(staleness_budget_s=120.0),
        gossip=GossipConfig(suspect_timeout_s=45.0),
        federation_brokers=3,
        fault_plan=FaultPlan(
            name="full",
            processes=(
                *get_profile("broker_blip").processes,
                ExponentialChurn(targets=("SC1",)),
            ),
        ),
    )


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.repetitions == 5  # the paper repeats 5 times

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(flow_tick=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ExperimentConfig(seed=-3)
        assert ExperimentConfig(seed=0).seed == 0

    def test_for_repetition_derives_seed(self):
        cfg = ExperimentConfig(seed=5, repetitions=3)
        seeds = {cfg.for_repetition(i).seed for i in range(3)}
        assert len(seeds) == 3
        assert 5 not in seeds

    def test_for_repetition_range_checked(self):
        cfg = ExperimentConfig(repetitions=2)
        with pytest.raises(ConfigError):
            cfg.for_repetition(2)


class TestSession:
    def test_wires_broker_and_eight_clients(self):
        session = Session(ExperimentConfig())
        assert session.broker.host.hostname == "nozomi.lsi.upc.edu"
        assert len(session.clients) == 8
        assert session.sc_labels() == tuple(f"SC{i}" for i in range(1, 9))

    def test_run_connects_everyone(self):
        session = Session(ExperimentConfig())

        def scenario(s):
            yield 0.0
            return len(s.candidates())

        n = session.run(scenario)
        assert n == 8
        assert all(c.online for c in session.clients.values())

    def test_run_returns_scenario_value(self):
        session = Session(ExperimentConfig())

        def scenario(s):
            yield 1.0
            return "payload"

        assert session.run(scenario) == "payload"

    def test_client_lookup(self):
        session = Session(ExperimentConfig())
        assert session.client("SC7").host.hostname == "planetlab1.itwm.fhg.de"

    def test_sessions_independent(self):
        a = Session(ExperimentConfig(seed=1))
        b = Session(ExperimentConfig(seed=1))
        assert a.broker is not b.broker
        assert a.sim is not b.sim


class TestConfigPersistence:
    def test_roundtrip(self, tmp_path):
        cfg = _full_config()
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg

    @pytest.mark.parametrize(
        "section,key",
        [
            (None, "liveness_timeout_s"),
            (None, "swarm"),
            ("recovery", "standby_broker"),
            ("gossip", "piggyback_max"),
            ("peer_config", "keepalive_enabled"),
            (None, "trace_policy"),
            ("peer_config", "petition_backoff_base_s"),
            ("recovery", "resume"),
            ("fault_plan.processes.1", "stream_prefix"),
        ],
    )
    def test_deleted_keys_rejected_by_name(self, section, key):
        data = _full_config().to_dict()
        target = data
        for step in section.split(".") if section else ():
            target = target[int(step) if step.isdigit() else step]
        target[key] = True
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(data)

    def test_roundtrip_without_peer_config(self, tmp_path):
        cfg = ExperimentConfig(seed=7)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_unknown_keys_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "warp_factor": 9})

    def test_invalid_values_still_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"repetitions": 0})


class TestSessionObservability:
    def test_session_picks_up_installed_registry(self):
        from repro.obs import MetricsRegistry, use_registry

        reg = MetricsRegistry()
        with use_registry(reg):
            session = Session(ExperimentConfig())
            assert session.metrics is reg
            assert session.sim.metrics is reg

            def scenario(s):
                yield 1.0

            session.run(scenario)
        # run() flushes kernel counters into the registry on exit.
        assert reg.counter("kernel.events_processed").value > 0
        assert reg.gauge("kernel.sim_time_s").value == session.sim.now

    def test_default_session_uses_null_registry(self):
        session = Session(ExperimentConfig())
        assert not session.metrics.enabled

    def test_bounded_trace_config(self):
        from repro.obs.trace import EventTrace

        session = Session(ExperimentConfig(trace=True, trace_capacity=16))
        assert isinstance(session.tracer, EventTrace)
        assert session.tracer.capacity == 16

        def scenario(s):
            yield 1.0

        session.run(scenario)
        assert session.tracer.seen > 0
        assert len(session.tracer) <= 16

    def test_trace_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trace_capacity=0)
