"""Study steps shared by the selection studies.

Every study that compares selection models builds them, probes peers
and waits on concurrent work the same way, so each step has one
definition here:

* :func:`make_selector` — the model-to-selector mapping (the paper's
  three models plus the blind baseline);
* :func:`probe` — a deadline-bounded warmup transfer that builds the
  broker's observed history;
* :func:`in_waves` — wait on concurrent processes a wave at a time;
* :func:`join` — connect a study's extra peers through the session's
  control plane (the head broker, or their federation shards);
* :func:`candidates` — a policy's selection view, with the one
  keepalive liveness window :data:`LIVENESS_S`;
* :func:`online_view` — the placement view of the scale and swarming
  studies.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import TransferAborted
from repro.selection.blind import RoundRobinSelector
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.preference import PreferenceTable, UserPreferenceSelector
from repro.selection.scheduling import SchedulingBasedSelector

__all__ = [
    "LIVENESS_S", "make_selector", "probe", "in_waves", "join", "candidates",
    "online_view",
]

#: Liveness window for the informed policies on the keepalive plane
#: (3 keepalive periods).
LIVENESS_S = 90.0


def make_selector(model: str, session, study: str, reserve: bool = True):
    """Fresh selector for ``model``.

    ``study`` names the evaluator's tie-break stream
    (``<study>/evaluator-ties``), so each study keeps its own draws;
    ``reserve`` says whether the economic model commits the peer's
    ready time.  The quick-peer user remembers the petition latencies
    the broker console has observed up to now.
    """
    if model == "blind":
        return RoundRobinSelector()
    if model == "economic":
        return SchedulingBasedSelector(reserve=reserve)
    if model == "same_priority":
        return DataEvaluatorSelector(
            "same_priority",
            tiebreak_rng=session.streams.get(f"{study}/evaluator-ties"),
        )
    if model == "quick_peer":
        table = PreferenceTable.quick_peer(
            session.broker.observed, 0.0, session.sim.now
        )
        return UserPreferenceSelector(table)
    raise ValueError(f"unknown model {model!r}")


def probe(broker, adv, filename: str, bits: float, n_parts: int, deadline_s: float):
    """Generator: send ``bits`` to ``adv`` in ``n_parts`` parts.

    The transfer is cancelled once it has run longer than
    ``deadline_s`` before a part, so a straggler earns a cancellation
    record; an aborted petition or part ends the probe quietly.  Run it
    with ``yield from`` inside the caller's process.
    """
    sim = broker.sim
    try:
        handle = yield from sim.call(
            broker.transfers.open_transfer(adv, filename=filename, total_bits=bits)
        )
    except TransferAborted:
        return
    part_bits = bits / n_parts
    started = sim.now
    for _ in range(n_parts):
        if sim.now - started > deadline_s:
            handle.cancel("deadline")
            return
        try:
            yield from sim.call(handle.send_part(part_bits))
        except TransferAborted:
            return
    handle.close()


def in_waves(procs: Iterable, size: int):
    """Generator: wait on ``procs`` ``size`` at a time.

    ``procs`` is consumed lazily, so each wave's processes start only
    after the previous wave has ended.  Run it with ``yield from``: it
    yields each process itself, because the kernel sends each one's
    value back, which a list iterator would not accept.
    """
    wave: List = []
    for proc in procs:
        wave.append(proc)
        if len(wave) >= size:
            for pending in wave:
                yield pending
            wave = []
    for pending in wave:
        yield pending


def join(session, peers: Iterable, wave: int = 1):
    """Generator: connect new ``peers``, ``wave`` joins at a time.

    On the keepalive plane each peer joins the head broker.  Under a
    gossip federation each is enrolled in its shard roster, joins its
    shard's broker, and gossip graphs are rebuilt once every join has
    landed; the head broker would refuse a peer another shard owns.
    Run it with ``yield from`` inside the caller's process.
    """
    sim = session.sim
    fed = session.federation
    if fed is None:
        broker = session.broker
        joins = (sim.process(peer.connect(broker.advertisement())) for peer in peers)
    else:
        peers = list(peers)
        for peer in peers:
            fed.enroll(peer)
        joins = (
            sim.process(peer.join_federated(fed.shard_map, fed.broker_advs()))
            for peer in peers
        )
    yield from in_waves(joins, wave)
    if fed is not None:
        fed.start_gossip()


def candidates(policy: str, session) -> list:
    """The records ``policy`` may pick from right now.

    The acting leader governs: after a broker failover the standby's
    replicated registry answers.  Under a gossip federation the
    registry is sharded, so the view is the union over the live
    federation brokers (map order, deduplicated), and no recency
    window applies: SWIM flips ``rec.online`` itself and gossip
    brokers get no beacons to age out.  Blind placement sees every
    registered peer, alive or not; informed policies see live ones.
    """
    if session.federation is not None:
        governors = [
            b for b in session.federation.brokers.values() if b.host.is_up
        ]
        window = None
    else:
        governors = [session.leader_broker]
        window = LIVENESS_S
    merged = []
    seen = set()
    for governor in governors:
        if policy == "blind":
            records = governor.candidates(online_only=False)
        else:
            records = governor.candidates(liveness_timeout_s=window)
        for rec in records:
            if rec.peer_id not in seen:
                seen.add(rec.peer_id)
                merged.append(rec)
    return merged


def online_view(policy: str, session) -> list:
    """The records the scale and swarming studies place on.

    On the keepalive plane: the head broker's online peers, with no
    recency window.  Under a federation: :func:`candidates`, the union
    over the live shards, since the head broker knows only its own.
    """
    if session.federation is None:
        return session.broker.candidates()
    return candidates(policy, session)
