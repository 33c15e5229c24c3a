"""Tests for the parallel sweep runner (:mod:`repro.perf.parallel`).

The headline property — parallel runs are **bit-identical** to serial
ones — is asserted here on real experiment sweeps: every CLI artifact
renders the same table and merges the same metric values at one and
at two workers.
"""

from __future__ import annotations

import pytest

from repro.__main__ import ARTIFACTS
from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, scale
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.perf import parallel as par
from repro.perf.parallel import (
    available_cpus,
    get_default_workers,
    picklable,
    pmap,
    resolve_workers,
    set_default_workers,
)


@pytest.fixture(autouse=True)
def _clean_worker_knobs(monkeypatch):
    """Isolate every test from ambient parallelism configuration."""
    monkeypatch.delenv(par.ENV_WORKERS, raising=False)
    monkeypatch.delenv(par._ENV_IN_WORKER, raising=False)
    set_default_workers(None)
    yield
    set_default_workers(None)


def _square(x):  # module-level: picklable by reference for pool tests
    return x * x


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert get_default_workers() == 1
        assert resolve_workers(None, 10) == 1

    def test_explicit_argument_wins(self):
        assert resolve_workers(3, 10) == 3

    def test_capped_by_task_count(self):
        assert resolve_workers(8, 2) == 2
        assert resolve_workers(8, 0) == 1  # never below 1

    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0, 1000) == min(available_cpus(), 1000)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1, 4)
        with pytest.raises(ConfigError):
            set_default_workers(-2)

    def test_process_default(self):
        set_default_workers(3)
        assert resolve_workers(None, 10) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(par.ENV_WORKERS, "2")
        assert get_default_workers() == 2
        monkeypatch.setenv(par.ENV_WORKERS, "auto")
        assert get_default_workers() == available_cpus()
        monkeypatch.setenv(par.ENV_WORKERS, "many")
        with pytest.raises(ConfigError):
            get_default_workers()

    def test_explicit_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(par.ENV_WORKERS, "7")
        set_default_workers(2)
        assert get_default_workers() == 2

    def test_inside_worker_pinned_serial(self, monkeypatch):
        monkeypatch.setenv(par._ENV_IN_WORKER, "1")
        assert resolve_workers(8, 10) == 1
        assert resolve_workers(0, 10) == 1


class TestPicklable:
    def test_plain_data_is_picklable(self):
        assert picklable((1, "a", [2.0]))
        assert picklable(_square)

    def test_closures_are_not(self):
        assert not picklable(lambda x: x)


class TestPmap:
    def test_serial_path_preserves_order(self):
        assert pmap(_square, range(6), workers=1) == [0, 1, 4, 9, 16, 25]

    def test_pool_path_preserves_order(self):
        # workers > tasks exercises the cap too.
        assert pmap(_square, range(6), workers=3) == [0, 1, 4, 9, 16, 25]

    def test_single_task_stays_in_process(self):
        # A one-element map must not pay pool startup.
        calls = []
        assert pmap(calls.append, ["only"], workers=8) == [None]
        assert calls == ["only"]  # ran in this process

    def test_empty(self):
        assert pmap(_square, [], workers=4) == []


#: Small sizes for the artifacts whose CLI defaults are slow; every
#: other artifact runs its CLI entry point at :data:`_IDENTITY_CONFIG`.
_SMALL_ARTIFACTS = {
    "scale-large": lambda config: scale.run_large(
        config, pools=(12, 16), n_jobs=4, concurrency=4
    ).table(),
    "scale-federated": lambda config: scale.run_federated(
        config, pools=(40,), baseline_pool=20, brokers=2
    ).table(),
}
_IDENTITY_CONFIG = ExperimentConfig(seed=2007, repetitions=2)


def _run_artifact(name, workers):
    set_default_workers(workers)
    runner = _SMALL_ARTIFACTS.get(name, ARTIFACTS[name][1])
    registry = MetricsRegistry()
    with use_registry(registry):
        table = runner(_IDENTITY_CONFIG)
    return table, registry.to_dict()


class TestBitIdenticalSweeps:
    """Parallel == serial, exactly: rendered tables and merged metrics."""

    @pytest.mark.parametrize(
        "name", [name for name in ARTIFACTS if name != "table1"]
    )
    def test_artifact_identical(self, name):
        table_serial, metrics_serial = _run_artifact(name, workers=1)
        table_parallel, metrics_parallel = _run_artifact(name, workers=2)
        assert table_serial == table_parallel
        assert metrics_serial == metrics_parallel

    def test_unpicklable_scenario_degrades_to_serial(self):
        from repro.experiments.runner import run_repetitions

        config = ExperimentConfig(seed=11, repetitions=2)
        seen = []

        def scenario(session):  # closure: cannot cross a process pool
            def proc():
                yield 1.0
                seen.append(session.sim.now)
                return session.sim.now

            return proc()

        results = run_repetitions(config, scenario, workers=4)
        # Degraded to serial in-process: the closure actually ran here
        # (a pool would have failed to pickle it), once per repetition.
        assert len(results) == 2
        assert seen == results
        assert results == run_repetitions(config, scenario, workers=1)
