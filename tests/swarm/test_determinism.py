"""Same-seed wire-path determinism for swarm downloads, with and
without an installed fault plan.

Pattern of ``tests/recovery/test_roundtrip.py``: run the same cell
twice from identical configs and require identical rows and an
identical trace, event for event.  The fault cross drives the
swarming cell under the canned ``straggler`` and ``flaky_links``
profiles and checks the resilience matrix's censored-vs-aborted
accounting stays intact: every offered download lands in exactly one
bucket and the measurement is NaN exactly when it did not complete.
"""

from __future__ import annotations

import math

from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.swarming import N_SYNTHETIC, _cell_scenario
from repro.faults.profiles import get_profile

SEED = 4217


def _config(fault_plan=None, trace=False) -> ExperimentConfig:
    return ExperimentConfig(
        seed=SEED,
        repetitions=1,
        synthetic_nodes=N_SYNTHETIC,
        fault_plan=fault_plan,
        trace=trace,
    )


def _swarm_cell(config, model="economic", k=2, g=16):
    session = Session(config)
    rows = session.run(
        lambda s: _cell_scenario(s, testbed="synthetic", model=model, k=k, g=g)
    )
    return session, rows


class TestSameSeedDeterminism:
    def test_twin_runs_walk_identical_wire_paths(self):
        session_a, rows_a = _swarm_cell(_config(trace=True))
        session_b, rows_b = _swarm_cell(_config(trace=True))
        assert rows_a == rows_b
        trace_a = [(e.kind, e.time) for e in session_a.tracer.events]
        trace_b = [(e.kind, e.time) for e in session_b.tracer.events]
        assert trace_a == trace_b
        # The swarm actually traced itself (not a vacuous comparison).
        kinds = {kind for kind, _ in trace_a}
        assert {"swarm-open", "swarm-piece", "swarm-done"} <= kinds

    def test_piece_trace_carries_source_attribution(self):
        session, rows = _swarm_cell(_config(trace=True))
        pieces = session.tracer.of_kind("swarm-piece")
        assert pieces
        for event in pieces:
            assert event.attrs["source"]
            assert event.attrs["piece"] >= 0


class TestFaultCross:
    """Swarming under canned fault profiles keeps its accounting."""

    def _check_accounting(self, rows, model, k, g):
        key = f"synthetic/{model}/k{k}/g{g}"
        buckets = (
            rows["synthetic/completed"],
            rows["synthetic/aborted"],
            rows["synthetic/censored"],
        )
        # Exactly one bucket per offered download.
        assert sum(buckets) == 1.0, rows
        assert all(b in (0.0, 1.0) for b in buckets), rows
        completed = rows["synthetic/completed"] == 1.0
        # Measurements are real iff the download completed; a censored
        # or aborted download must not leak a partial timing.
        assert math.isnan(rows[key]) != completed, rows
        assert math.isnan(rows[f"{key}/tail"]) != completed, rows

    def test_profiles_preserve_accounting_and_determinism(self):
        for profile in ("straggler", "flaky_links"):
            plan = get_profile(profile)
            _, rows_a = _swarm_cell(
                _config(fault_plan=plan), model="quick_peer", k=2, g=16
            )
            _, rows_b = _swarm_cell(
                _config(fault_plan=plan), model="quick_peer", k=2, g=16
            )
            self._check_accounting(rows_a, "quick_peer", 2, 16)
            # Same seed, same plan: bit-identical rows (NaN == NaN by
            # key-wise repr comparison below).
            assert sorted(rows_a) == sorted(rows_b), profile
            for key in rows_a:
                a, b = rows_a[key], rows_b[key]
                assert (a == b) or (
                    math.isnan(a) and math.isnan(b)
                ), (profile, key)
