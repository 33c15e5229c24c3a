"""A connected peer builds only what it uses.

An idle peer only beacons to its broker: its host draws handling
delays for light messages and loss, and nothing else.  The links,
the heavy handling model, the CPU and task-failure sources and the
four overlay services are built on first use.  The services'
instruments are still bound when the peer is built, so a metrics
export names the same instruments whether or not a service ran.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.scenario import Session
from repro.obs import MetricsRegistry, use_registry
from repro.obs.export import write_metrics
from repro.units import mbit

#: How long the connected peers sit idle.
IDLE_S = 600.0


def _idle_session(seed: int = 2011) -> Session:
    session = Session(ExperimentConfig(seed=seed))
    sim = session.sim
    sim.run(until=sim.process(session.connect_all()))
    sim.run(until=sim.now + IDLE_S)
    return session


def _streams_of(session: Session, hostname: str) -> set:
    return {n for n in session.streams.names() if n.endswith("/" + hostname)}


class TestIdlePeer:
    def test_registers_only_its_light_and_loss_streams(self):
        session = _idle_session()
        for client in session.clients.values():
            spec = client.host.spec
            expected = {f"light/{spec.hostname}"}
            if spec.per_mb_loss > 0:
                expected.add(f"loss/{spec.hostname}")
            assert client.online
            assert _streams_of(session, spec.hostname) == expected

    def test_builds_no_link_handling_cpu_or_service(self):
        session = _idle_session()
        for client in session.clients.values():
            host = client.host
            assert host._up is None and host._down is None
            assert host._overhead is None
            assert host._cpu_share_rng is None
            assert client._transfers is None
            assert client._tasks is None
            assert client._discovery is None
            assert client._sharing is None


class TestFirstUse:
    def test_each_service_is_built_once(self):
        session = _idle_session()
        client = session.client("SC1")
        for name in ("transfers", "tasks", "discovery", "sharing"):
            service = getattr(client, name)
            assert service is getattr(client, name)
            assert service.peer is client

    def test_the_task_service_brings_its_failure_source(self):
        session = _idle_session()
        client = session.client("SC1")
        hostname = client.host.hostname
        assert f"taskfail/{hostname}" not in _streams_of(session, hostname)
        client.tasks
        assert f"taskfail/{hostname}" in _streams_of(session, hostname)

    def test_first_use_adds_no_attribute(self):
        """Neither a service nor armed failover adds an attribute.

        CPython shares one key table among a class's instance dicts
        only while each holds the same keys (at most 30) in the same
        order; an attribute added on first use costs every peer a full
        dict."""
        session = Session(ExperimentConfig(seed=2011))
        client = session.client("SC1")
        built = list(vars(client))
        assert len(built) <= 30
        sim = session.sim
        sim.run(until=sim.process(session.connect_all()))
        for name in ("transfers", "tasks", "discovery", "sharing"):
            getattr(client, name)
        client.enable_failover([session.broker.advertisement()])
        sim.run(until=sim.process(
            session.broker.transfers.send_file(
                client.advertisement(), "f.bin", mbit(1), n_parts=1
            )
        ))
        assert list(vars(client)) == built


def _metric_names(tmp_path, name: str, use) -> dict:
    registry = MetricsRegistry()
    with use_registry(registry):
        session = _idle_session()
        use(session)
    path = write_metrics(registry, tmp_path / f"{name}.json")
    data = json.loads(path.read_text())
    return {kind: sorted(data[kind]) for kind in ("counters", "gauges", "histograms")}


def _discover(session: Session) -> None:
    sim = session.sim
    sim.run(until=sim.process(
        session.client("SC1").discovery.query("peer", {})
    ))


def _transfer(session: Session) -> None:
    sim = session.sim
    sim.run(until=sim.process(
        session.broker.transfers.send_file(
            session.client("SC2").advertisement(), "f.bin", mbit(1), n_parts=1
        )
    ))


class TestMetricNames:
    @pytest.mark.parametrize("use", [_discover, _transfer], ids=["discovery", "transfer"])
    def test_export_names_match_a_run_without_the_service(self, tmp_path, use):
        idle = _metric_names(tmp_path, "idle", lambda session: None)
        used = _metric_names(tmp_path, "used", use)
        assert used == idle
        assert "overlay.discovery_attempts" in idle["counters"]
        assert "overlay.transfers_ok" in idle["counters"]
