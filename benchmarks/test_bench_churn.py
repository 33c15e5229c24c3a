"""Benchmark: the churn extension — selection under peer churn."""

from __future__ import annotations

from repro.experiments import ExperimentConfig, churn

from benchmarks.conftest import emit


def test_bench_churn():
    config = ExperimentConfig(seed=2007, repetitions=3)
    result = churn.run(config)
    assert result.completion_rate("economic") > result.completion_rate("blind")
    assert result.completion_rate("economic") >= 0.9
    emit(
        "Extension — peer churn: blind vs informed placement "
        f"(blind completes {result.completion_rate('blind'):.0%}, "
        f"economic {result.completion_rate('economic'):.0%})",
        result.table(),
    )
