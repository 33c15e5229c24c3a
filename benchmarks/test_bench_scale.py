"""Benchmark: the paper's future-work extension — larger peer pools.

"In our future work we would like to extend the empirical study …
by using a larger number of peer nodes."  The scale experiment grows
the candidate pool from the paper's 8 SimpleClients to the full 24
non-broker Table 1 nodes and compares blind vs informed placement.
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, scale

from benchmarks.conftest import emit


def test_bench_scale():
    config = ExperimentConfig(seed=2007, repetitions=3)
    result = scale.run(config)
    # Informed selection must beat blind placement at every pool size,
    # and stay effective as the pool triples.
    for pool in scale.POOL_SIZES:
        assert result.cost("economic", pool) < result.cost("blind", pool)
    assert result.advantage(24) > 1.1
    emit(
        "Future work — selection models on larger peer pools "
        f"(blind/economic advantage at 24 peers: {result.advantage(24):.2f}x)",
        result.table(),
    )
