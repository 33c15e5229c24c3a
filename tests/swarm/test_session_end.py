"""Swarm workers left suspended when their session ends stay inert.

A download that completes leaves its parked and mid-stream workers
suspended.  When garbage collection later closes those generators,
their cleanup must not act in the dead session: no handle closed as
OK, no ``TransferComplete`` sent, no counter or gauge touched in the
session's metrics registry.  A sweep that merges per-repetition
registries only after every repetition ran would otherwise count
these phantom transfers.
"""

from __future__ import annotations

import gc

from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.swarming import N_SYNTHETIC, _cell_scenario
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry


def test_collected_workers_leave_the_registry_alone():
    config = ExperimentConfig(
        seed=2007, repetitions=1, synthetic_nodes=N_SYNTHETIC
    )
    registry = MetricsRegistry()
    gc.collect()
    with use_registry(registry):
        session = Session(config)
        rows = session.run(
            lambda s: _cell_scenario(s, testbed="synthetic", k=4, g=16)
        )
    assert rows["synthetic/completed"] == 1.0
    before = registry.to_dict()
    assert before["counters"]["overlay.transfers_ok"] > 0
    del session
    gc.collect()
    assert registry.to_dict() == before
