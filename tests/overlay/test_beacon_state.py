"""Broker liveness state after idle beacon traffic, pinned bit for bit.

The golden digests (``tests/test_golden_digests.py``) hash rendered
tables, which never show what the keepalive and stat-report beacons
leave on the broker.  This test runs the paper's 8 SimpleClients idle
for two simulated hours at seed 2007 and hashes every broker record's
liveness state (``last_seen``, the ``pending_*`` occupancies, the
snapshot and its per-key freshness times) together with each client's
own statistics snapshot.  A change to the beacon path that should keep
behaviour leaves the digest in place.
"""

from __future__ import annotations

import hashlib

from repro.experiments import ExperimentConfig
from repro.experiments.scenario import Session

from tests.conftest import freshness_times

SEED = 2007
IDLE_S = 2 * 3600.0

GOLDEN_BEACON_STATE = (
    "4db7cf2235b67b578dd76983b5b0753ae2f4544e668d50eeb8d9c7dc4448d5bd"
)


def _beacon_state(session: Session) -> str:
    now = session.sim.now
    lines = [repr(now)]
    for rec in sorted(session.broker.registry.values(), key=lambda r: r.adv.name):
        lines.append(repr((
            rec.adv.name,
            rec.last_seen,
            rec.pending_tasks,
            rec.pending_transfers,
            sorted(rec.snapshot.items()),
            sorted(freshness_times(rec.freshness).items()),
        )))
    for label, client in sorted(session.clients.items()):
        lines.append(repr((label, sorted(client.stats.snapshot(now).items()))))
    return "\n".join(lines)


def _idle_session() -> Session:
    session = Session(ExperimentConfig(seed=SEED))
    sim = session.sim
    sim.run(until=sim.process(session.connect_all()))
    sim.run(until=sim.now + IDLE_S)
    return session


def test_idle_clients_leave_the_pinned_broker_state():
    session = _idle_session()
    now = session.sim.now
    assert len(session.broker.registry) == len(session.clients) == 8
    # Not vacuous: every record heard a recent keepalive and holds a
    # full statistics snapshot, each key with a freshness time.
    for client in session.clients.values():
        rec = session.broker.registry[client.peer_id]
        assert now - rec.last_seen <= client.config.keepalive_interval_s + 1.0
        assert "pct_messages_ok_session" in rec.snapshot
        assert all(rec.freshness.age(k, now) < float("inf") for k in rec.snapshot)
    digest = hashlib.sha256(_beacon_state(session).encode()).hexdigest()
    assert digest == GOLDEN_BEACON_STATE
