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
import math
import weakref

from repro.experiments import resilience
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.swarming import N_SYNTHETIC, _cell_scenario
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_registry
from repro.recovery import RecoveryConfig
from repro.swarm import SwarmCoordinator


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


def test_censored_one_leg_delivery_stays_inert(monkeypatch):
    """A k=1 delivery runs its leg inside ``download``.  Censored at
    the deadline, it settles at once and leaves the leg suspended in
    that frame; when collection closes the frames, nothing cleans up
    in the dead session."""
    # At 10 s the first part of the first delivery is on the wire.
    monkeypatch.setattr(resilience, "RUN_DEADLINE_S", 10.0)
    drivers = []

    class Recorded(SwarmCoordinator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(weakref.ref(self))

    monkeypatch.setattr(resilience, "SwarmCoordinator", Recorded)
    config = ExperimentConfig(
        seed=71, repetitions=1, recovery=RecoveryConfig()
    )
    registry = MetricsRegistry()
    gc.collect()
    with use_registry(registry):
        session = Session(config)
        rows = session.run(lambda s: resilience._scenario(s, "blind"))
    assert rows["censored"] == 1.0
    (ref,) = drivers
    driver = ref()
    assert driver.k == 1 and driver.settled
    # The leg is still open, mid-part, inside the download's frame.
    assert driver._alive == 1 and driver._streaming == 1
    assert not math.isnan(driver.outcome.first_part_at)
    assert not driver.outcome.proofs
    before = registry.to_dict()
    assert before["counters"]["swarm.downloads_failed"] == 1
    assert before["gauges"]["swarm.sources_active"]["value"] == 1
    del driver, session
    gc.collect()
    assert ref() is None
    assert registry.to_dict() == before
