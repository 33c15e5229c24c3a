"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) and prints the same rows/series the paper reports; run with

    pytest benchmarks/ -s

to see the tables.  Shape assertions run inside the benchmarks, so a
benchmark run is also a reproduction check.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig

#: The reproduction configuration: the paper's five repetitions.
PAPER_CONFIG = ExperimentConfig(seed=2007, repetitions=5)


@pytest.fixture
def paper_config() -> ExperimentConfig:
    """Per-benchmark copy of the standard configuration."""
    return PAPER_CONFIG


def emit(title: str, body: str) -> None:
    """Print a report block (visible with -s)."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)
