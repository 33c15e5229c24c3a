"""Every settable config field, pinned by name.

A new option changes this list, so it lands as a reviewed diff, the
way a changed result lands as a golden-digest diff
(``tests/test_golden_digests.py``).  CONTRIBUTING.md says when an
option may be added.

Every hand-rolled ``to_dict`` (one not built on ``dataclasses.asdict``)
must also serialize every field: a dropped field would silently
revert to its default on reload.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.scenario import ExperimentConfig
from repro.faults import FaultPlan
from repro.faults.injectors import LossBurst, NodeCrash
from repro.faults.processes import RandomWindows, process_from_dict
from repro.gossip.config import GossipConfig
from repro.overlay.peer import PeerConfig
from repro.recovery.config import RecoveryConfig
from repro.simlint.findings import Finding

FIELDS = {
    ExperimentConfig: (
        "seed", "repetitions", "include_full_slice", "synthetic_nodes",
        "trace", "trace_capacity", "flow_tick", "peer_config",
        "fault_plan", "recovery", "gossip", "federation_brokers",
    ),
    PeerConfig: (
        "keepalive_interval_s", "petition_timeout_s", "petition_retries",
        "confirm_timeout_s", "confirm_retries", "request_timeout_s",
        "request_retries", "task_queue_limit", "bulk_max_attempts",
    ),
    RecoveryConfig: ("replication_interval_s", "staleness_budget_s"),
    GossipConfig: ("probe_interval_s", "probe_timeout_s", "suspect_timeout_s"),
}


def test_config_fields_are_pinned():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls
    assert sum(len(names) for names in FIELDS.values()) == 26


# Every field off its default, so a field left out of ``to_dict``
# comes back different from a round trip.
_WINDOWS = RandomWindows(
    fault=LossBurst(target="SC2", per_mb_loss=0.3, duration_s=30.0),
    mean_gap_s=90.0,
    mean_duration_s=45.0,
    horizon_s=1800.0,
    min_duration_s=2.0,
    stream_name="faults/test-windows",
)
_PLAN = FaultPlan(
    name="every-field",
    schedule=((5.0, NodeCrash(target="SC1", duration_s=60.0)),),
    processes=(_WINDOWS,),
)
_CONFIG = ExperimentConfig(
    seed=11,
    repetitions=2,
    include_full_slice=True,
    synthetic_nodes=3,
    trace=True,
    trace_capacity=50,
    flow_tick=5.0,
    peer_config=PeerConfig(petition_timeout_s=42.0),
    fault_plan=_PLAN,
    recovery=RecoveryConfig(staleness_budget_s=120.0),
    gossip=GossipConfig(suspect_timeout_s=45.0),
    federation_brokers=2,
)
_FINDING = Finding(
    rule="SIM001", path="src/x.py", line=3, col=4, message="m", end_line=7
)


def _json_roundtrip(data: dict) -> dict:
    return json.loads(json.dumps(data))


@pytest.mark.parametrize(
    "obj, load",
    [
        (_CONFIG, ExperimentConfig.from_dict),
        (_PLAN, FaultPlan.from_dict),
        (_WINDOWS, process_from_dict),
        (_FINDING, lambda data: Finding(**data)),
    ],
    ids=["ExperimentConfig", "FaultPlan", "RandomWindows", "Finding"],
)
def test_hand_rolled_to_dict_keeps_every_field(obj, load):
    data = obj.to_dict()
    names = [f.name for f in dataclasses.fields(obj)]
    assert set(data) - {"kind"} == set(names)
    back = load(_json_roundtrip(data))
    assert back == obj
    # Fields excluded from ``==`` (``Finding.end_line``) too.
    for name in names:
        assert getattr(back, name) == getattr(obj, name), name
