"""Tests for the repetition runner."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.runner import average_rows, run_cells, run_repetitions
from repro.experiments.scenario import ExperimentConfig


class TestRunRepetitions:
    def test_runs_once_per_repetition(self):
        cfg = ExperimentConfig(repetitions=3)

        def scenario(session):
            yield 0.0
            return session.config.seed

        results = run_repetitions(cfg, scenario)
        assert len(results) == 3
        assert len(set(results)) == 3  # distinct derived seeds

    def test_repetitions_statistically_independent(self):
        cfg = ExperimentConfig(repetitions=2)

        def scenario(session):
            outcome = yield session.sim.process(
                session.broker.transfers.send_file(
                    session.client("SC4").advertisement(), "f", 1e6
                )
            )
            return outcome.petition_time

        a, b = run_repetitions(cfg, scenario)
        assert a != b  # different jitter draws per repetition


def _collector_probe(seen):
    """A scenario recording the cycle collector's state."""

    def scenario(session):
        seen.append((gc.isenabled(), gc.get_threshold()))
        yield 0.0
        return 1

    return scenario


class _Cycle:
    def __init__(self):
        self.me = self


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestCollectorPause:
    def test_young_passes_only_during_run_and_restored(self):
        before = gc.get_threshold()
        seen = []
        run_repetitions(ExperimentConfig(repetitions=2), _collector_probe(seen))
        assert len(seen) == 2
        for enabled, (young, middle, old) in seen:
            assert enabled
            assert young == runner.YOUNG_PASS_OBJECTS
            assert middle >= 1 << 30 and old >= 1 << 30
        assert gc.isenabled()
        assert gc.get_threshold() == before

    def test_left_alone_when_already_off(self, collector_off):
        before = gc.get_threshold()
        seen = []
        run_repetitions(ExperimentConfig(repetitions=1), _collector_probe(seen))
        assert seen == [(False, before)]
        assert not gc.isenabled()

    def test_restored_when_scenario_raises(self):
        before = gc.get_threshold()

        def scenario(session):
            yield 0.0
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_repetitions(ExperimentConfig(repetitions=1), scenario)
        assert gc.isenabled()
        assert gc.get_threshold() == before

    def test_nested_sweep_restores_the_outer_setting(self):
        before = gc.get_threshold()
        inner_seen, after_inner = [], []

        def outer(session):
            run_repetitions(
                ExperimentConfig(repetitions=1), _collector_probe(inner_seen)
            )
            after_inner.append(gc.get_threshold()[0])
            yield 0.0
            return 1

        run_repetitions(ExperimentConfig(repetitions=1), outer)
        assert inner_seen[0][1][0] == runner.YOUNG_PASS_OBJECTS
        assert after_inner == [runner.YOUNG_PASS_OBJECTS]
        assert gc.get_threshold() == before

    def test_young_pass_frees_cyclic_garbage_mid_run(self, monkeypatch):
        monkeypatch.setattr(runner, "YOUNG_PASS_OBJECTS", 1000)
        freed = []

        def scenario(session):
            ref = weakref.ref(_Cycle())
            keep = [[] for _ in range(3000)]
            freed.append(ref() is None)
            yield 0.0
            return len(keep)

        run_repetitions(ExperimentConfig(repetitions=1), scenario)
        assert freed == [True]

    def test_simulator_freed_when_run_cells_returns(self):
        refs = []

        def scenario(session):
            refs.append(weakref.ref(session.sim))
            yield 1.0
            return 1

        # No automatic collection may do the runner's job for it.
        threshold = gc.get_threshold()
        gc.set_threshold(10**9)
        try:
            run_cells([(ExperimentConfig(repetitions=2), scenario)])
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            gc.set_threshold(*threshold)


class TestAverageRows:
    def test_per_key_summaries(self):
        rows = [{"x": 1.0, "y": 4.0}, {"x": 3.0, "y": 6.0}]
        out = average_rows(rows)
        assert out["x"].mean == pytest.approx(2.0)
        assert out["y"].mean == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_rows([])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            average_rows([{"x": 1.0}, {"y": 2.0}])
