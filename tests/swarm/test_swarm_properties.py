"""Property-based tests for the swarm engine.

Randomized piece layouts and holdings (seeded stdlib
``random`` — the same harness style as
``tests/simnet/test_flow_properties.py``) drive the pure
:class:`~repro.swarm.pieces.PieceTracker` through random request/
proof/failure walks, and the full :class:`SwarmCoordinator` through
end-to-end downloads on random small topologies, checking the
invariants the engine advertises:

* a completed download has exactly one proof per part: the tracker
  proves a piece once however many copies of it confirm;
* no part is fetched twice outside endgame (every re-request of an
  in-flight piece is flagged as an endgame duplicate);
* rarest-first never hands out a piece with zero availability, a piece
  the source does not hold, or a piece the source is already fetching;
* the streaming concurrency never exceeds the choke-slot cap.
"""

from __future__ import annotations

import random

from repro.obs.trace import EventTrace
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Network
from repro.swarm import Leg, SwarmCoordinator
from repro.swarm.choke import UNCHOKE_SLOTS
from repro.swarm.pieces import PieceTracker
from repro.units import mbit

from tests.conftest import connect, run_process

N_TRACKER_WALKS = 200
N_SWARM_RUNS = 25


class TestTrackerProperties:
    """Random request/proof/abandon walks over the pure tracker."""

    def test_random_walks_hold_ordering_invariants(self):
        for seed in range(N_TRACKER_WALKS):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            priorities = [rng.random() for _ in range(n)]
            tracker = PieceTracker([1e6] * n, priorities)
            holdings = {}
            for s in range(rng.randint(1, 5)):
                name = f"s{s}"
                if rng.random() < 0.3:
                    tracker.add_source(name)
                    holdings[name] = set(range(n))
                else:
                    held = {i for i in range(n) if rng.random() < 0.6}
                    tracker.add_source(name, sorted(held))
                    holdings[name] = held
            max_dup = rng.randint(1, 3)
            for _ in range(300):
                if tracker.complete:
                    break
                op = rng.random()
                if op < 0.65:
                    live = tracker.sources()
                    if not live:
                        break
                    name = live[rng.randrange(len(live))]
                    was_endgame = tracker.in_endgame
                    piece = tracker.next_piece(name, max_dup)
                    if piece is None:
                        continue
                    # The ordering contract, checked at hand-out time.
                    assert piece in holdings[name], f"seed {seed}"
                    assert tracker.availability(piece) >= 1, f"seed {seed}"
                    assert not tracker.proven(piece), f"seed {seed}"
                    assert not tracker.fetching(name, piece), f"seed {seed}"
                    if tracker.inflight(piece) > 0:
                        # A duplicate: only in endgame, under the cap.
                        assert was_endgame, f"seed {seed}"
                        assert tracker.inflight(piece) < max_dup, f"seed {seed}"
                    tracker.begin(piece, name)
                elif op < 0.85:
                    inflight = [
                        i for i in range(n) if tracker.inflight(i) > 0
                    ]
                    if inflight:
                        piece = rng.choice(inflight)
                        assert tracker.mark_proven(piece), f"seed {seed}"
                        assert tracker.inflight(piece) == 0
                elif op < 0.95:
                    live = tracker.sources()
                    if live:
                        name = live[rng.randrange(len(live))]
                        fetching = [
                            i for i in range(n)
                            if tracker.fetching(name, i)
                        ]
                        if fetching:
                            tracker.abandon(rng.choice(fetching), name)
                else:
                    live = tracker.sources()
                    if len(live) > 1:
                        name = live[rng.randrange(len(live))]
                        dropped = tracker.remove_source(name)
                        for piece in dropped:
                            assert not tracker.fetching(name, piece)
                        del holdings[name]


def _topology(rng: random.Random, n_hosts: int) -> Topology:
    region = Region("eu")
    site = Site(name="lab", region=region)
    topo = Topology()
    for i in range(n_hosts):
        topo.add_node(
            NodeSpec(
                hostname=f"h{i}.example",
                site=site,
                up_bps=rng.choice([2e6, 5e6, 10e6]),
                down_bps=rng.choice([2e6, 5e6, 10e6]),
                overhead_s=0.02,
                overhead_cv=0.3,
                per_mb_loss=rng.choice([0.0, 0.005, 0.02]),
                load_min_share=1.0,
                load_max_share=1.0,
            )
        )
    topo.set_region_rtt("eu", "eu", 0.02)
    return topo


def _run_swarm(seed: int):
    """One random end-to-end download; returns everything to check."""
    rng = random.Random(10_000 + seed)
    n_replicas = rng.randint(1, 4)
    sim = Simulator()
    net = Network(
        sim,
        _topology(rng, n_replicas + 2),
        streams=RandomStreams(seed=seed),
        tracer=EventTrace(),
    )
    ids = IdFactory()
    broker = Broker(net, "h0.example", ids, name="broker")
    dest = SimpleClient(net, "h1.example", ids, name="dest")
    replicas = [
        SimpleClient(net, f"h{i + 2}.example", ids, name=f"src{i}")
        for i in range(n_replicas)
    ]
    connect(sim, broker, dest, *replicas)
    g = rng.randint(2, 10)
    # The origin holds everything; replicas hold random subsets.
    holdings = {broker.name: set(range(g))}
    sources = [Leg(broker)]
    for node in replicas:
        held = {i for i in range(g) if rng.random() < 0.7}
        holdings[node.name] = held
        if held:
            sources.append(Leg(node, pieces=tuple(sorted(held))))
    coord = SwarmCoordinator(
        net,
        dest.advertisement(),
        filename=f"prop-{seed}",
        total_bits=mbit(2) * g,
        n_parts=g,
        select=lambda needed, exclude: [
            s for s in sources if s.name not in exclude
        ][:needed],
        k=rng.randint(1, len(sources)),
    )
    outcome = run_process(sim, coord.download())
    return coord, outcome, holdings, g


class TestSwarmProperties:
    """End-to-end invariants over random downloads."""

    def test_random_downloads_hold_engine_invariants(self):
        for seed in range(N_SWARM_RUNS):
            coord, out, holdings, g = _run_swarm(seed)
            label = f"seed {seed}"
            assert out.ok, f"{label}: {out.reason}"
            # Exactly one proof per part, in the outcome and the tracker.
            proven = [piece for piece, _ in out.proofs]
            assert sorted(proven) == list(range(g)), label
            assert coord._tracker.proven_count == g, label
            # No part fetched twice outside endgame: every re-request
            # of a piece is flagged as an endgame duplicate.
            by_piece = {}
            for req in out.requests:
                by_piece.setdefault(req.piece, []).append(req)
            for piece, reqs in by_piece.items():
                assert not reqs[0].duplicate, f"{label} piece {piece}"
                for extra in reqs[1:]:
                    assert extra.duplicate, f"{label} piece {piece}"
                # Never handed to a source that does not hold it (and
                # thus never to a zero-availability piece).
                for req in reqs:
                    assert piece in holdings[req.source], label
            # Concurrency never exceeded the choke-slot cap.
            assert 1 <= out.max_active <= UNCHOKE_SLOTS, label
            if coord.k == 1:
                # One leg at a time: no streaming slots to manage.
                assert coord._choke is None, label
            else:
                assert len(coord._choke.unchoked_names()) <= UNCHOKE_SLOTS
            # Duplicate accounting is consistent.
            dup_requests = sum(1 for r in out.requests if r.duplicate)
            assert out.duplicate_requests == dup_requests, label
            assert (
                out.duplicates_cancelled + out.duplicate_parts
                <= out.duplicate_requests
            ), label

    def test_endgame_duplicates_occur_and_are_deduplicated(self):
        """Across the random corpus, endgame actually fires, and every
        duplicate is either cancelled mid-stream or finds its piece
        already proven in the tracker: some duplicates complete a full
        redundant round, and the proof count still never exceeds one
        per part."""
        total_duplicates = total_cancelled = total_redundant = 0
        for seed in range(N_SWARM_RUNS):
            coord, out, _, g = _run_swarm(seed)
            total_duplicates += out.duplicate_requests
            total_redundant += out.duplicate_parts
            proven = [piece for piece, _ in out.proofs]
            assert sorted(proven) == list(range(g)), f"seed {seed}"
            assert coord._tracker.proven_count == g, f"seed {seed}"
            # Each cancelled duplicate is traced with its piece/source.
            cancels = coord.network.tracer.of_kind("swarm-cancel")
            assert len(cancels) == out.duplicates_cancelled, f"seed {seed}"
            requested = {(req.piece, req.source) for req in out.requests}
            for event in cancels:
                assert event.get("filename") == out.filename
                assert (event.get("piece"), event.get("source")) in requested
            total_cancelled += len(cancels)
        assert total_duplicates > 0 and total_cancelled > 0, (
            "corpus never reached endgame; invariants above are vacuous"
        )
        # A redundant round's late confirm reached the tracker and was
        # not counted as a second proof: the deduplication really ran.
        assert total_redundant > 0, (
            "no duplicate confirm ever landed; the dedup is untested"
        )

    def test_failed_source_is_replaced_and_traced(self):
        rng = random.Random(3)
        sim = Simulator()
        net = Network(
            sim, _topology(rng, 4), streams=RandomStreams(seed=3),
            tracer=EventTrace(),
        )
        ids = IdFactory()
        broker = Broker(net, "h0.example", ids, name="broker")
        dest = SimpleClient(net, "h1.example", ids, name="dest")
        flaky = SimpleClient(net, "h2.example", ids, name="flaky")
        spare = SimpleClient(net, "h3.example", ids, name="spare")
        connect(sim, broker, dest, flaky, spare)
        sources = [Leg(flaky), Leg(broker), Leg(spare)]
        coord = SwarmCoordinator(
            net,
            dest.advertisement(),
            filename="reassign",
            total_bits=mbit(2) * 8,
            n_parts=8,
            select=lambda needed, exclude: [
                s for s in sources if s.name not in exclude
            ][:needed],
            k=2,
        )
        sim.call_in(0.5, flaky.host.crash)
        out = run_process(sim, coord.download())
        assert out.ok, out.reason
        assert out.sources_failed == ["flaky"]
        (event,) = net.tracer.of_kind("swarm-reassign")
        assert event.get("filename") == "reassign"
        assert event.get("source") == "flaky"
        assert event.get("error")
        assert event.get("dropped") >= 0
        # The spare source was admitted in the failed one's place.
        assert "spare" in {req.source for req in out.requests}
