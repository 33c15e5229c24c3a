"""run_federated: smoke cells, acceptance bounds, bit-identity."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, scale
from repro.perf.parallel import set_default_workers

CONFIG = ExperimentConfig(seed=2007, repetitions=2)
#: The CI smoke cell: two shards, 200 federated peers.
SMOKE = dict(pools=(200,), baseline_pool=100, brokers=2)


def _fingerprint(result: scale.FederatedResult):
    """NaN-stable identity of a federated result (NaN != NaN, so the
    dataclasses cannot be compared directly; their reprs can)."""
    return (
        result.cells,
        tuple((key, repr(summary)) for key, summary in sorted(result.summaries.items())),
    )


class TestSmokeStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return scale.run_federated(CONFIG, **SMOKE)

    def test_cells_present(self, result):
        assert result.cells == (
            "baseline/100", "federated/200", "killbroker/200"
        )

    def test_federation_cost_is_sublinear(self, result):
        assert result.sublinearity() < 1.0

    def test_degradation_meets_acceptance_bound(self, result):
        assert result.discovery_success("killbroker/200") >= 0.95
        assert result.value("killbroker/200", "rehome_rate") >= 0.95
        assert result.goodput_retention("killbroker/200") > 0.0

    def test_no_false_suspicions_in_stable_cells(self, result):
        for cell in ("baseline/100", "federated/200"):
            assert result.value(cell, "false_suspect_rate") == 0.0

    def test_table_renders(self, result):
        out = result.table()
        assert "killbroker/200" in out
        assert "broker msg/peer/100s" in out


class TestBitIdentity:
    def test_same_seed_is_bit_identical(self):
        a = scale.run_federated(CONFIG, **SMOKE)
        b = scale.run_federated(CONFIG, **SMOKE)
        assert _fingerprint(a) == _fingerprint(b)

    def test_serial_matches_parallel(self):
        set_default_workers(1)
        try:
            serial = scale.run_federated(CONFIG, **SMOKE)
            set_default_workers(2)
            parallel = scale.run_federated(CONFIG, **SMOKE)
        finally:
            set_default_workers(None)
        assert _fingerprint(serial) == _fingerprint(parallel)


class TestLargePoolsFederated:
    def test_run_large_places_across_shards(self):
        # Extra peers join their own shards (the head broker refuses a
        # peer another shard owns) and placement sees every live shard.
        from dataclasses import replace

        from repro.gossip.config import GossipConfig

        config = replace(
            CONFIG, repetitions=1, gossip=GossipConfig(), federation_brokers=3
        )
        result = scale.run_large(config, pools=(30,), n_jobs=4, concurrency=4)
        for model in scale.MODELS:
            assert result.cost(model, 30) > 0
