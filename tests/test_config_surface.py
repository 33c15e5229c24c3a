"""Every settable config field, pinned by name.

A new option changes this list, so it lands as a reviewed diff, the
way a changed result lands as a golden-digest diff
(``tests/test_golden_digests.py``).  CONTRIBUTING.md says when an
option may be added.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.scenario import ExperimentConfig
from repro.gossip.config import GossipConfig
from repro.overlay.peer import PeerConfig
from repro.recovery.config import RecoveryConfig

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
    RecoveryConfig: (
        "max_transfer_attempts", "resume_backoff_s", "petition_deadline_s",
        "supervision_poll_s", "replication_interval_s", "staleness_budget_s",
    ),
    GossipConfig: ("probe_interval_s", "probe_timeout_s", "suspect_timeout_s"),
}


def test_config_fields_are_pinned():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls
    assert sum(len(names) for names in FIELDS.values()) == 30
