"""Future-work experiment: peer selection at larger scale.

The paper closes with: "In our future work we would like to extend the
empirical study of this work to study the performance of the proposed
peer selection models by using a larger number of peer nodes."  This
module implements that extension on the full Table 1 slice: the
candidate pool grows from the paper's 8 SimpleClients to all 24
non-broker slice nodes, and each selection model (plus a blind
baseline) places a batch of file transfers.

Reported metric: mean transmission cost (s/Mb) of the placed transfers
per model and pool size.  Expected shape: informed selection's
advantage *grows* with the pool — a bigger pool has more mediocre
nodes for blind selection to stumble into, while the economic model
keeps finding the good ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Tuple

from repro.analysis.stats import Summary
from repro.errors import (
    HostDownError,
    NotConnectedError,
    TransferAborted,
)
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_cells, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import in_waves, join, make_selector, online_view
from repro.faults.injectors import NodeCrash
from repro.faults.plan import FaultPlan
from repro.gossip.config import GossipConfig
from repro.overlay.advertisements import ResourceAdvertisement
from repro.overlay.client import SimpleClient
from repro.overlay.peer import RequestTimeout
from repro.selection.base import SelectionContext, Workload
from repro.simnet.planetlab import (
    BROKER_HOSTNAME,
    SIMPLECLIENTS,
    TABLE1_HOSTNAMES,
    synthetic_hostnames,
)
from repro.units import mbit, to_mbit
from repro.workloads.generator import WorkloadGenerator

__all__ = [
    "ScaleResult",
    "FederatedResult",
    "run",
    "run_large",
    "run_federated",
    "POOL_SIZES",
    "LARGE_POOL_SIZES",
    "FEDERATED_POOLS",
    "MODELS",
]

#: Candidate pool sizes: the paper's 8 SCs, and the full slice.
POOL_SIZES: Tuple[int, ...] = (8, 16, 24)
#: Large-pool sizes beyond the physical slice (synthetic slivers).
LARGE_POOL_SIZES: Tuple[int, ...] = (100, 500, 1000)
MODELS: Tuple[str, ...] = ("blind", "economic", "same_priority")

PROBE_BITS = mbit(10)
JOB_BITS = mbit(30)
JOB_PARTS = 4
N_JOBS = 6
#: Jobs per (model, pool) cell in the large-pool study.
N_JOBS_LARGE = 24
#: Concurrent placements per wave in the large-pool study.
CONCURRENCY = 32


@dataclass(frozen=True)
class ScaleResult:
    """Mean cost (s/Mb) per (model, pool size)."""

    summaries: Mapping[str, Summary]  # key "economic/16"
    pools: Tuple[int, ...] = POOL_SIZES

    def cost(self, model: str, pool: int) -> float:
        """Mean s/Mb for one cell."""
        return self.summaries[f"{model}/{pool}"].mean

    def advantage(self, pool: int) -> float:
        """Blind cost over economic cost at one pool size."""
        return self.cost("blind", pool) / self.cost("economic", pool)

    def table(self) -> str:
        """Cost matrix."""
        rows = []
        for model in MODELS:
            rows.append((model,) + tuple(self.cost(model, p) for p in self.pools))
        rows.append(
            ("blind/economic",)
            + tuple(self.advantage(p) for p in self.pools)
        )
        headers = ("model",) + tuple(f"{p} peers" for p in self.pools)
        return render_table(
            headers, rows,
            title="Scale experiment — transfer cost (s/Mb) vs pool size",
        )


#: Non-broker physical slice size (8 SCs + 16 generic Table 1 nodes).
_REAL_POOL = len(TABLE1_HOSTNAMES) - 1


def _pool_hostnames(pool: int) -> List[str]:
    """The first ``pool`` candidate hostnames: SCs first, then the
    remaining Table 1 nodes in catalog order, then synthetic slivers."""
    sc_hosts = list(SIMPLECLIENTS.values())
    others = [
        h for h in TABLE1_HOSTNAMES
        if h not in sc_hosts and h != BROKER_HOSTNAME
    ]
    names = sc_hosts + others
    if pool > len(names):
        names += list(synthetic_hostnames(pool - len(names)))
    return names[:pool]


def _scenario(session: Session):
    sim = session.sim
    broker = session.broker
    # Bring up the extra slice nodes beyond the 8 session SCs.
    extra = {}
    for hostname in _pool_hostnames(max(POOL_SIZES)):
        if hostname not in {c.host.hostname for c in session.clients.values()}:
            extra[hostname] = SimpleClient(
                session.network, hostname, session.ids, name=hostname
            )
    yield from join(session, extra.values())

    all_peers = {c.host.hostname: c for c in session.clients.values()}
    all_peers.update(extra)

    # Warmup: one probe per peer so informed models have history.
    for hostname, peer in all_peers.items():
        try:
            yield from sim.call(
                broker.transfers.send_file(
                    peer.advertisement(), f"probe-{hostname}", PROBE_BITS,
                    n_parts=2,
                )
            )
        except TransferAborted:
            continue

    costs: Dict[str, float] = {}
    for pool in POOL_SIZES:
        pool_hosts = set(_pool_hostnames(pool))
        for model in MODELS:
            selector = make_selector(model, session, "scale")
            total = 0.0
            for j in range(N_JOBS):
                candidates = [
                    rec for rec in online_view(model, session)
                    if rec.adv.hostname in pool_hosts
                ]
                ctx = SelectionContext(
                    broker=broker,
                    now=sim.now,
                    workload=Workload(transfer_bits=JOB_BITS, n_parts=JOB_PARTS),
                    candidates=candidates,
                )
                record = selector.select(ctx)
                outcome = yield from sim.call(
                    broker.transfers.send_file(
                        record.adv, f"job-{model}-{pool}-{j}", JOB_BITS,
                        n_parts=JOB_PARTS,
                    )
                )
                total += outcome.transmission_time
            costs[f"{model}/{pool}"] = total / N_JOBS / to_mbit(JOB_BITS)
    return costs


def run(config: ExperimentConfig = ExperimentConfig()) -> ScaleResult:
    """Run the scale experiment (needs the full slice topology)."""
    config = replace(config, include_full_slice=True)
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return ScaleResult(summaries=average_rows(rows))


# -- large pools (synthetic slivers) ----------------------------------------


def _run_one_transfer(sim, broker, adv, name, bits, n_parts, results):
    """Guarded transfer process: aborted transfers drop the sample
    instead of failing the wave."""
    try:
        outcome = yield from sim.call(
            broker.transfers.send_file(adv, name, bits, n_parts=n_parts)
        )
    except TransferAborted:
        return
    results.append(outcome.transmission_time / to_mbit(bits))


def _large_scenario(session: Session, pool: int, n_jobs: int, concurrency: int):
    """One repetition of the large-pool study at one pool size.

    Placements run ``concurrency`` at a time — unlike the sequential
    classic scenario, waves of concurrent flows contend for the broker
    uplink, which is exactly the regime the incremental flow scheduler
    exists for.
    """
    sim = session.sim
    broker = session.broker
    hostnames = _pool_hostnames(pool)
    pool_hosts = set(hostnames)
    peers = {c.host.hostname: c for c in session.clients.values()}

    def place(model, selector, filename, job, samples):
        ctx = SelectionContext(
            broker=broker,
            now=sim.now,
            workload=Workload(
                transfer_bits=job.file.size_bits, n_parts=job.n_parts
            ),
            candidates=[
                rec for rec in online_view(model, session)
                if rec.adv.hostname in pool_hosts
            ],
        )
        record = selector.select(ctx)
        return sim.process(_run_one_transfer(
            sim, broker, record.adv, filename,
            job.file.size_bits, job.n_parts, samples,
        ))

    # Bring up everything beyond the 8 session SCs, a wave at a time.
    fresh = [
        SimpleClient(session.network, h, session.ids, name=h)
        for h in hostnames if h not in peers
    ]
    peers.update((peer.host.hostname, peer) for peer in fresh)
    yield from join(session, fresh, concurrency)

    # Warmup: one short probe per peer so informed models have history.
    results: List[float] = []  # probe costs are discarded
    yield from in_waves(
        (
            sim.process(_run_one_transfer(
                sim, broker, peers[h].advertisement(),
                f"probe-{h}", PROBE_BITS, 1, results,
            ))
            for h in hostnames
        ),
        concurrency,
    )

    # One job list per pool: every model places the same offered load.
    gen = WorkloadGenerator(
        session.streams.get(f"scale/jobs-{pool}"), n_parts_choices=(1, 4)
    )
    jobs = gen.batch(n_jobs)

    costs: Dict[str, float] = {}
    for model in MODELS:
        selector = make_selector(model, session, "scale")
        samples: List[float] = []
        yield from in_waves(
            (
                place(model, selector, f"job-{model}-{pool}-{j}", job, samples)
                for j, job in enumerate(jobs)
            ),
            concurrency,
        )
        if not samples:
            raise TransferAborted(f"all {model}/{pool} placements aborted")
        costs[f"{model}/{pool}"] = sum(samples) / len(samples)
    return costs


def run_large(
    config: ExperimentConfig = ExperimentConfig(),
    pools: Tuple[int, ...] = LARGE_POOL_SIZES,
    n_jobs: int = N_JOBS_LARGE,
    concurrency: int = CONCURRENCY,
) -> ScaleResult:
    """Run the future-work study at synthetic pool sizes (100/500/1000).

    Each pool size gets its own testbed: the full Table 1 slice plus
    enough synthetic slivers to reach ``pool`` candidates.
    """
    cells = [
        (
            replace(
                config,
                include_full_slice=True,
                synthetic_nodes=max(0, pool - _REAL_POOL),
            ),
            functools.partial(
                _large_scenario,
                pool=pool,
                n_jobs=n_jobs,
                concurrency=concurrency,
            ),
        )
        for pool in pools
    ]
    summaries: Dict[str, Summary] = {}
    for rows in run_cells(cells):
        summaries.update(average_rows(rows))
    return ScaleResult(summaries=summaries, pools=pools)


# -- federated control plane (ROADMAP: 10k+ peers) ---------------------------

#: Federated cell sizes (total peers incl. the 8 session SCs).
FEDERATED_POOLS: Tuple[int, ...] = (2000, 10000)
#: Single-broker keepalive baseline the federation is compared against.
FED_BASELINE_POOL = 1000
#: Brokers in the federated cells.
FED_BROKERS = 3
#: Control-plane observation window (sim-seconds after join settles).
FED_OBSERVATION_S = 600.0
#: Discovery probes sampled per cell (success rate + latency).
FED_DISCOVERY_SAMPLES = 40
#: Petition transfers per goodput window.
FED_GOODPUT_TRANSFERS = 24
FED_GOODPUT_BITS = mbit(5)
#: Post-kill settle time before degradation is measured: SWIM detection
#: (probe + suspect timeout) plus rumor spread and the rehome walks
#: (including one retry backoff for walks that hit busy survivors).
FED_KILL_SETTLE_S = 600.0
#: Concurrent federated joins per wave during cell bring-up.
FED_JOIN_WAVE = 64


@dataclass(frozen=True)
class FederatedResult:
    """Control-plane cost and degradation per federated cell.

    Cell keys are ``baseline/<n>``, ``federated/<n>`` and
    ``killbroker/<n>``; metrics are averaged over repetitions.
    """

    cells: Tuple[str, ...]
    summaries: Mapping[str, Summary]  # keys "<cell>/<metric>"

    def value(self, cell: str, metric: str) -> float:
        """Mean of one cell metric (NaN when the cell lacks it)."""
        summary = self.summaries.get(f"{cell}/{metric}")
        return summary.mean if summary is not None else float("nan")

    def messages_per_peer(self, cell: str) -> float:
        """Broker control messages per peer per 100 sim-seconds."""
        return self.value(cell, "broker_msgs_per_peer_100s")

    def discovery_success(self, cell: str) -> float:
        """Fraction of sampled discovery queries that resolved."""
        return self.value(cell, "discovery_success")

    def goodput_retention(self, cell: str) -> float:
        """Post-kill goodput over pre-kill goodput (NaN outside the
        broker-kill cell)."""
        return self.value(cell, "goodput_retention")

    def sublinearity(self) -> float:
        """Largest federated msgs/peer over the baseline msgs/peer —
        < 1 means the federation's per-peer broker load is sublinear
        in the population (the acceptance bound)."""
        base = min(
            (
                self.messages_per_peer(c)
                for c in self.cells
                if c.startswith("baseline/")
            ),
            default=float("nan"),
        )
        fed = max(
            (
                self.messages_per_peer(c)
                for c in self.cells
                if c.startswith("federated/")
            ),
            default=float("nan"),
        )
        return fed / base

    def table(self) -> str:
        """The federated study as a text table."""
        rows = []
        for cell in self.cells:
            rows.append(
                (
                    cell,
                    self.value(cell, "peers"),
                    self.value(cell, "brokers"),
                    self.messages_per_peer(cell),
                    self.value(cell, "peer_msgs_per_peer_100s"),
                    self.discovery_success(cell),
                    self.value(cell, "discovery_p50_s"),
                    self.value(cell, "discovery_p95_s"),
                    self.value(cell, "false_suspect_rate"),
                    self.value(cell, "rehome_rate"),
                    self.goodput_retention(cell),
                )
            )
        return render_table(
            (
                "cell", "peers", "brokers", "broker msg/peer/100s",
                "peer msg/peer/100s", "disc ok", "disc p50 (s)",
                "disc p95 (s)", "false susp", "rehomed", "goodput ret",
            ),
            rows,
            title="Federated control plane — cost and degradation per cell",
        )


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (NaN when empty)."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def _fed_bringup(session: Session, pool: int):
    """Generator: bring the cell to ``pool`` connected peers.

    Returns ``{name: peer}`` over session SCs plus synthetic slivers.
    Joins run :data:`FED_JOIN_WAVE` at a time; in federated mode the
    new peers are enrolled first and gossip graphs are (re)built once
    every join has landed.
    """
    peers: Dict[str, SimpleClient] = dict(session.clients)
    fresh: List[SimpleClient] = []
    for hostname in synthetic_hostnames(max(0, pool - len(peers))):
        peer = SimpleClient(
            session.network, hostname, session.ids, name=hostname,
            config=session.config.peer_config,
        )
        peers[peer.name] = peer
        fresh.append(peer)
    yield from join(session, fresh, FED_JOIN_WAVE)
    return peers


def _fed_goodput(session: Session, peers, order: List[str], n: int, bits: int):
    """Generator: one petition-goodput window.

    Places ``n`` small transfers from each sampled peer's *home*
    broker (the control point that admitted it) and returns delivered
    Mb per sim-second.  A home mid-outage fails that placement — which
    is exactly the degradation the killbroker cell measures.
    """
    sim = session.sim
    fed = session.federation
    started = sim.now
    delivered_bits = 0.0
    for i in range(n):
        peer = peers[order[i % len(order)]]
        broker = session.broker
        if fed is not None and peer.broker_adv is not None:
            broker = fed.brokers.get(peer.broker_adv.hostname, broker)
        try:
            yield from sim.call(
                broker.transfers.send_file(
                    peer.advertisement(),
                    f"fedgood-{started:.0f}-{i}",
                    bits,
                    n_parts=1,
                )
            )
            delivered_bits += bits
        except (TransferAborted, HostDownError, RequestTimeout,
                NotConnectedError):
            pass
    elapsed = max(sim.now - started, 1e-9)
    return to_mbit(delivered_bits) / elapsed


def _fed_discovery(session: Session, peers, queriers, targets):
    """Generator: sampled cross-shard discovery probes.

    Every target has published a resource to its home shard; each
    querier resolves one by name through its own home broker (local
    shard first, federated fan-out on miss).  Returns
    ``(success_rate, latencies)``.
    """
    sim = session.sim
    ok = 0
    latencies: List[float] = []
    for qname, tname in zip(queriers, targets):
        querier = peers[qname]
        started = sim.now
        try:
            advs = yield from sim.call(
                querier.discovery.query(
                    "resource", attrs={"name": f"shared-{tname}"}
                )
            )
        except (RequestTimeout, NotConnectedError, HostDownError):
            continue
        if advs:
            ok += 1
            latencies.append(sim.now - started)
    rate = ok / len(queriers) if queriers else float("nan")
    return rate, latencies


def _fed_sample(session: Session, names: List[str], k: int):
    """``k`` seeded (querier, target) pairs over the peer names."""
    rng = session.streams.get("scale/fed-discovery")
    queriers: List[str] = []
    targets: List[str] = []
    for _ in range(k):
        qi = int(rng.integers(0, len(names)))
        ti = int(rng.integers(0, len(names)))
        if ti == qi:
            ti = (ti + 1) % len(names)
        queriers.append(names[qi])
        targets.append(names[ti])
    return queriers, targets


def _control_snapshot(session: Session, peers) -> Tuple[int, int]:
    """(broker, edge-peer) control-message totals right now."""
    broker_total = sum(b.control_messages for b in session.brokers)
    peer_total = sum(p.control_messages for p in peers.values())
    return broker_total, peer_total


def _federated_scenario(session: Session, pool: int, kill_broker: bool):
    """One repetition of one federated-study cell.

    Timeline: bring-up → control-message snapshot → pre goodput window
    → (optionally kill one broker and let gossip converge) → sampled
    discovery probes → post goodput window (kill cell) → final
    snapshot.  Module-level so :func:`functools.partial` keeps the
    sweep picklable for the parallel path.
    """
    sim = session.sim
    fed = session.federation
    peers = yield from sim.call(_fed_bringup(session, pool))
    names = list(peers)
    queriers, targets = _fed_sample(session, names, FED_DISCOVERY_SAMPLES)
    # Targets publish ahead of the window so every probe is resolvable.
    for tname in dict.fromkeys(targets):
        peer = peers[tname]
        peer.discovery.publish(ResourceAdvertisement(
            published_at=sim.now,
            peer_id=peer.peer_id,
            kind="file",
            name=f"shared-{tname}",
        ))
    yield 5.0  # let the publishes land before measuring

    broker0, peer0 = _control_snapshot(session, peers)
    t0 = sim.now
    goodput_order = list(queriers)
    goodput_before = yield from sim.call(
        _fed_goodput(session, peers, goodput_order, FED_GOODPUT_TRANSFERS,
                     FED_GOODPUT_BITS)
    )

    victims = 0.0
    if kill_broker:
        victim = session.brokers[1]
        victims = float(sum(
            1 for p in peers.values()
            if p.broker_adv is not None
            and p.broker_adv.hostname == victim.host.hostname
        ))
        FaultPlan(
            name="fed-kill-broker",
            schedule=((0.0, NodeCrash(target=victim.host.hostname)),),
        ).install(session, base=sim.now)
        yield FED_KILL_SETTLE_S

    remaining = FED_OBSERVATION_S - (sim.now - t0)
    if remaining > 0:
        yield remaining

    disc_rate, latencies = yield from sim.call(
        _fed_discovery(session, peers, queriers, targets)
    )
    goodput_after = float("nan")
    if kill_broker:
        goodput_after = yield from sim.call(
            _fed_goodput(session, peers, goodput_order,
                         FED_GOODPUT_TRANSFERS, FED_GOODPUT_BITS)
        )

    broker1, peer1 = _control_snapshot(session, peers)
    elapsed = max(sim.now - t0, 1e-9)
    per_100s = 100.0 / elapsed

    suspects = 0
    false_suspects = 0
    if fed is not None:
        agents = list(fed.agents.values()) + [
            b.gossip_agent for b in fed.brokers.values()
            if b.gossip_agent is not None
        ]
        suspects = sum(a.suspect_events for a in agents)
        false_suspects = sum(a.false_suspect_events for a in agents)

    rehomed = float("nan")
    if kill_broker and fed is not None:
        dead_host = session.brokers[1].host.hostname
        live_homes = sum(
            1 for p in peers.values()
            if p.online
            and p.broker_adv is not None
            and p.broker_adv.hostname != dead_host
        )
        rehomed = live_homes / len(peers)

    metrics: Dict[str, float] = {
        "peers": float(len(peers)),
        "brokers": float(len(session.brokers)),
        "victims": victims,
        "broker_msgs": float(broker1 - broker0),
        "broker_msgs_per_peer_100s": (
            (broker1 - broker0) / len(peers) * per_100s
        ),
        "peer_msgs_per_peer_100s": (
            (peer1 - peer0) / len(peers) * per_100s
        ),
        "discovery_success": disc_rate,
        "discovery_p50_s": _percentile(latencies, 0.50),
        "discovery_p95_s": _percentile(latencies, 0.95),
        "false_suspect_rate": (
            false_suspects / suspects if suspects else 0.0
        ),
        "rehome_rate": rehomed,
        "goodput_before": goodput_before,
        "goodput_after": goodput_after,
        "goodput_retention": (
            goodput_after / goodput_before
            if kill_broker and goodput_before > 0
            else float("nan")
        ),
    }
    return metrics


def run_federated(
    config: ExperimentConfig = ExperimentConfig(),
    pools: Tuple[int, ...] = FEDERATED_POOLS,
    baseline_pool: int = FED_BASELINE_POOL,
    brokers: int = FED_BROKERS,
) -> FederatedResult:
    """Run the gossip-federated control-plane study.

    Cells: a single-broker keepalive **baseline** at ``baseline_pool``
    peers, a gossip **federated** cell per entry of ``pools``, and one
    **killbroker** degradation cell (smallest federated pool, one of
    the ``brokers`` brokers crashed mid-run).  CI runs the seeded
    2-shard cell ``pools=(200,), baseline_pool=100, brokers=2``.

    The cells run as one :func:`run_cells` sweep, so ``--parallel``
    fans them out bit-identically to the serial path.
    """
    gossip = config.gossip if config.gossip is not None else GossipConfig()
    specs = [("baseline", baseline_pool, 1, False)]
    specs += [("federated", pool, brokers, False) for pool in pools]
    specs.append(("killbroker", min(pools), brokers, True))
    cells = [
        (
            replace(
                config,
                synthetic_nodes=max(0, pool - len(SIMPLECLIENTS)),
                gossip=gossip if n_brokers > 1 else None,
                federation_brokers=n_brokers,
            ),
            functools.partial(_federated_scenario, pool=pool, kill_broker=kill),
        )
        for _label, pool, n_brokers, kill in specs
    ]
    labels = tuple(f"{label}/{pool}" for label, pool, _n, _kill in specs)
    summaries: Dict[str, Summary] = {}
    for cell, rows in zip(labels, run_cells(cells)):
        for key, summary in average_rows(rows).items():
            summaries[f"{cell}/{key}"] = summary
    return FederatedResult(cells=labels, summaries=summaries)
