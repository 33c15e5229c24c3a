"""Golden digests: every CLI artifact renders exactly the committed table.

Each entry is the SHA-256 of the table ``python -m repro <artifact>
--seed 2007 --reps 1`` prints for that artifact.  A change that should
not alter results (a deletion, a refactor, a speed-up) leaves every
digest in place; a change that does alter results shows up here as a
reviewed diff to this file, with the new digests and the reason.

``scale-large`` and ``scale-federated`` are left out: together they
take about a minute, the rest about two seconds.  Small cell sets
stand in for them: two small pools of the large-pool study, so its
concurrent waves of joins, probes and placements have a digest, and a
small ``scale-federated`` study, so the SWIM path (probes, ping-req,
suspect, dead and rehome in the kill-broker cell) has one too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.__main__ import ARTIFACTS
from repro.experiments import ExperimentConfig, scale

SEED = 2007

GOLDEN = {
    "table1": "7b4a3c54698fee6e674d2992058feed25c66a2385178199f1c00957beb641948",
    "fig2": "f65dc44d059e8ef415a92c1a4bc55d5895b7062d9ac8f53dde0848c32533594a",
    "fig3": "874e58c4783982624c387e54f8831e9b7795b0079946d984197c3afe0c0dab5f",
    "fig4": "cbabd4663d910ef0a46065d39305249d06cd649db9ff9a76a15363115c97ef36",
    "fig5": "f5192b1b9a7d37a482f34068ce975a78225c5f021771b85bfb1a5b86d189e8a5",
    "fig6": "9bedae04d9c6f1787564da402a799db015e744f5ef84b07d56baf5df3903ffb3",
    "fig7": "4320c0d7060e63de0dad5af4603f5c0b7fd282c5c6e7b7b05c404f9b4b624002",
    "scale": "0dae735506986f49e8a113a01822d0a30ef656e553805cfd57da22e64e2a10d1",
    "churn": "e5e45a870bb2736133f3382a6f0cdab0d5242493169db607535308ee6a7e99b1",
    "resilience": "a894d5a0c828f263a847cb4b6f9250df176b52eb15b245ed8f206b93ccba9bf0",
    "swarming": "3554db30b942a5371278189136550f7d2c2c2ae3dc56b48a6dcfed0e0c749636",
}

SLOW = {"scale-large", "scale-federated"}

#: ``scale.run_federated`` at 20 baseline peers and 100 peers on two
#: brokers, one of them killed mid-run.
GOLDEN_FEDERATED_SMALL = (
    "20944cc4490455a8c2ae5d9656a1887528424a48cdce972abed39467f56f53a2"
)


#: ``scale.run_large`` at pools of 12 and 16 peers, 4 jobs, 4 at a time.
GOLDEN_LARGE_SMALL = (
    "3caa5f8ef049ac00ab3616663c9db5e0652cc8c37b326269dbc66c76d8e11634"
)


def test_every_fast_artifact_has_a_digest():
    assert set(GOLDEN) == set(ARTIFACTS) - SLOW


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden_digest(name, monkeypatch):
    # The swarming smoke switch shrinks the study; digests are of the
    # full artifact.
    monkeypatch.delenv("REPRO_SWARM_SMOKE", raising=False)
    _, runner = ARTIFACTS[name]
    rendered = runner(ExperimentConfig(seed=SEED, repetitions=1))
    assert hashlib.sha256(rendered.encode()).hexdigest() == GOLDEN[name]


def test_small_federated_study_matches_golden_digest():
    rendered = scale.run_federated(
        ExperimentConfig(seed=SEED, repetitions=1),
        pools=(100,), baseline_pool=20, brokers=2,
    ).table()
    assert hashlib.sha256(rendered.encode()).hexdigest() == GOLDEN_FEDERATED_SMALL


def test_small_large_pool_study_matches_golden_digest():
    rendered = scale.run_large(
        ExperimentConfig(seed=SEED, repetitions=1),
        pools=(12, 16), n_jobs=4, concurrency=4,
    ).table()
    assert hashlib.sha256(rendered.encode()).hexdigest() == GOLDEN_LARGE_SMALL
