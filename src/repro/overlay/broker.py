"""The Broker — governor of the overlay.

Per the paper (§3), brokers "act as governors of the P2P network":
they admit peers, keep the per-peer historical and statistical data
the selection models consume (the registry is the "historical data
kept for the peergroup"; the one peergroup is everybody the broker
admitted), index advertisements for discovery, and hold the
scheduling-based model's ready-time bookkeeping.

The broker extends :class:`~repro.overlay.peer.PeerNode`, so it is a
full peer (it can itself transfer files and submit tasks — which is how
the paper's experiments drive the SimpleClients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import HostDownError, UnknownPeerError
from repro.overlay.advertisements import (
    Advertisement,
    PeerAdvertisement,
    ResourceAdvertisement,
)
from repro.overlay.ids import PeerId
from repro.overlay.messages import (
    DigestEntry,
    DiscoveryQuery,
    DiscoveryResponse,
    JoinAck,
    JoinRequest,
    KeepAlive,
    LeaveNotice,
    PublishAdvertisement,
    StatReport,
    StateSync,
)
from repro.overlay.peer import PeerNode, RequestTimeout
from repro.overlay.statistics import (
    SNAPSHOT_KEYS,
    PeerStats,
    PerformanceHistory,
    StalenessClock,
)
from repro.simnet.transport import Datagram

__all__ = ["PeerRecord", "Broker"]

#: Timeout for one broker-to-broker leg of a cross-shard discovery
#: fan-out.
FANOUT_TIMEOUT_S = 15.0

#: Snapshot keys a :class:`KeepAlive` refreshes, stamped as one set.
_KEEPALIVE_KEYS = frozenset((
    "outbox_len_now", "inbox_len_now", "pending_tasks", "pending_transfers",
))

#: Snapshot keys served from the broker's own interaction history in
#: :meth:`PeerRecord.selection_snapshot` — always fresh (the broker
#: maintains them itself), so staleness tracking exempts them.
_INTERACTION_KEYS = (
    "pct_messages_ok_session",
    "pct_messages_ok_total",
    "pct_messages_ok_last_k",
    "pct_files_sent_session",
    "pct_files_sent_total",
    "pct_transfers_cancelled_session",
    "pct_transfers_cancelled_total",
)


@dataclass
class PeerRecord:
    """Everything the broker knows about one registered peer."""

    adv: PeerAdvertisement
    joined_at: float
    last_seen: float
    online: bool = True
    #: Latest §2.2 statistics snapshot pushed by the peer.
    snapshot: Dict[str, float] = field(default_factory=dict)
    #: Broker-observed performance (transfer rates, petition latency).
    perf: PerformanceHistory = field(default_factory=PerformanceHistory)
    #: Broker-side interaction accounting with this peer (message and
    #: file outcomes of the broker's own conversations) — "historical
    #: data kept for the peergroup".
    interaction: Optional["PeerStats"] = None
    #: Economic-model bookkeeping: time until which the broker has
    #: already committed this peer to planned work.
    busy_until: float = 0.0
    #: Queue occupancies from the latest keepalive.
    pending_tasks: int = 0
    pending_transfers: int = 0
    #: None for a locally registered peer; the replicating broker's id
    #: for records learned through :class:`StateSync` replication.
    home_broker: Optional[PeerId] = None
    #: Per-input refresh times backing degraded-mode selection.
    freshness: StalenessClock = field(default_factory=StalenessClock)

    @property
    def is_local(self) -> bool:
        """True when this broker admitted the peer itself."""
        return self.home_broker is None

    @property
    def peer_id(self) -> PeerId:
        """The peer's id."""
        return self.adv.peer_id

    def ready_at(self, now: float) -> float:
        """Earliest time this peer can start new planned work."""
        return max(now, self.busy_until)

    def reserve(self, until: float) -> None:
        """Commit this peer to planned work until ``until``."""
        self.busy_until = max(self.busy_until, until)

    def is_idle(self, now: float) -> bool:
        """Idle = no live queue content and no planned commitment."""
        return (
            self.pending_tasks == 0
            and self.pending_transfers == 0
            and self.busy_until <= now
        )

    def selection_snapshot(self, now: float, last_k_hours: float = 1.0) -> Dict[str, float]:
        """The statistics view the data-evaluator model consumes.

        The peer-pushed snapshot (queue occupancies, task shares)
        overlaid with the broker's own interaction history for the
        message/file criteria — the broker's conversations with the
        peer are the most informative record of its reachability and
        transfer reliability.
        """
        merged = dict(self.snapshot)
        if self.interaction is not None:
            inter = self.interaction.snapshot(now, last_k_hours=last_k_hours)
            for key in _INTERACTION_KEYS:
                merged[key] = inter[key]
        merged.setdefault("pending_transfers", float(self.pending_transfers))
        merged.setdefault("pending_tasks", float(self.pending_tasks))
        return merged

    def input_age(self, key: str, now: float) -> float:
        """Age (seconds) of the snapshot input behind ``key``.

        0.0 for interaction-backed inputs (the broker's own accounting
        never goes stale), inf for inputs the peer has never reported.
        """
        if self.interaction is not None and key in _INTERACTION_KEYS:
            return 0.0
        return self.freshness.age(key, now)


class Broker(PeerNode):
    """Broker peer: registry + discovery index."""

    kind = "broker"

    def __init__(
        self,
        network,
        hostname,
        ids,
        name=None,
        config=None,
    ) -> None:
        super().__init__(network, hostname, ids, name=name, config=config)
        self.registry: Dict[PeerId, PeerRecord] = {}
        #: Peer-name -> record index (gossip rumors identify members by
        #: name, not PeerId).
        self._name_index: Dict[str, PeerRecord] = {}
        #: Published advertisements by kind for discovery.
        self._adv_index: Dict[str, List[Advertisement]] = {
            "peer": [],
            "resource": [],
        }
        self.online = True
        self.stats.start_session()
        # The broker is its own broker: its discovery/publish calls
        # loop back through the (simulated) network to itself.
        self.broker_adv = self.advertisement()
        #: Gossip federation attachments (see :meth:`attach_federation`;
        #: all None outside a gossip federation).
        self.federation = None
        self.shard_map = None
        #: Replication targets (standby/primary): peer id -> adv.
        self.replicas: Dict[PeerId, PeerAdvertisement] = {}
        self._replication_running = False
        self._replication_interval_s = 30.0
        # Governor-side instruments (no-ops unless a registry is installed).
        reg = self.metrics
        self._m_joins = reg.counter("broker.joins")
        self._m_keepalives = reg.counter("broker.keepalives")
        self._m_stat_reports = reg.counter("broker.stat_reports")
        self._m_queries = reg.counter("broker.discovery_queries")
        self._m_state_syncs = reg.counter("broker.state_syncs")
        self._m_registry_size = reg.gauge("broker.registry_size")
        self._m_shard_handoffs = reg.counter("gossip.shard_handoffs")
        self._m_shard_map_version = reg.gauge("gossip.shard_map_version")
        self._m_fanout_queries = reg.counter("gossip.fanout_queries")
        self._m_join_redirects = reg.counter("gossip.join_redirects")

    # -- registry ---------------------------------------------------------

    def record(self, peer_id: PeerId) -> PeerRecord:
        """Look up a peer's record (raises if unregistered)."""
        try:
            return self.registry[peer_id]
        except KeyError:
            raise UnknownPeerError(f"broker has no record of {peer_id}") from None

    def candidates(
        self,
        kind: str = "simpleclient",
        online_only: bool = True,
        liveness_timeout_s: Optional[float] = None,
    ) -> List[PeerRecord]:
        """Peers eligible for selection, in deterministic join order.

        ``liveness_timeout_s`` drops peers whose last sign of life
        (keepalive / report / state sync) is older than the window —
        the broker's defence against silent churn: a crashed peer
        never says goodbye, it just stops writing home.  Callers on a
        gossip-governed broker pass None: there are no periodic beacons
        to age out, and SWIM flips ``rec.online`` the moment a peer
        goes suspect/dead, so recency filtering would only starve
        selection.  The boundary is pinned *inclusive*: a peer whose
        last sign of life is exactly ``liveness_timeout_s`` old is
        still eligible (it is not "older than the window"); it drops
        out the instant its age strictly exceeds the window.  This
        matters when the window is an exact multiple of the keepalive
        period — the common "3 keepalive periods" configuration — where
        a peer's age routinely lands exactly on the boundary at
        sampling instants.
        """
        now = self.sim.now
        out = [
            rec
            for rec in self.registry.values()
            if rec.adv.kind == kind
            and (rec.online or not online_only)
            and (
                liveness_timeout_s is None
                # Inclusive boundary: drop only when strictly older
                # than the window (see docstring).
                or not (now - rec.last_seen > liveness_timeout_s)
            )
        ]
        out.sort(key=lambda r: (r.joined_at, r.adv.name))
        return out

    def reserve(self, peer_id: PeerId, until: float) -> None:
        """Commit a peer to planned work until ``until`` (economic model)."""
        self.record(peer_id).reserve(until)

    # -- message handlers --------------------------------------------------

    def _on_join_request(self, dgram: Datagram) -> None:
        req: JoinRequest = dgram.payload
        self._m_joins.inc()
        self.control_messages += 1
        now = self.sim.now
        src = self.network.host(dgram.src)
        if self.shard_map is not None and req.kind != "broker":
            owner = self._shard_owner_for(req.hostname)
            if owner is not None and owner != self.host.hostname:
                # Wrong shard: refuse with a redirect carrying our
                # (fresher) map so a stale client can retry correctly.
                self._m_join_redirects.inc()
                self.host.send(
                    src,
                    JoinAck(
                        broker_id=self.peer_id,
                        accepted=False,
                        reason="wrong shard",
                        redirect_hostname=owner,
                        shard_map=self.shard_map.to_wire(),
                    ),
                    light=True,
                )
                return
        rec = self.registry.get(req.peer_id)
        if rec is None:
            adv = PeerAdvertisement(
                published_at=now,
                peer_id=req.peer_id,
                name=req.name,
                hostname=req.hostname,
                cpu_speed=req.cpu_speed,
                kind=req.kind,
            )
            rec = PeerRecord(adv=adv, joined_at=now, last_seen=now)
            # Share the broker's own observation history for this peer
            # so transfers the broker performs feed selection directly.
            rec.perf = self.observed_perf(req.peer_id)
            rec.interaction = self.interaction_stats(req.hostname)
            self.registry[req.peer_id] = rec
            self._name_index[req.name] = rec
            self._adv_index["peer"].append(adv)
            self._m_registry_size.set(len(self.registry))
        else:
            rec.online = True
            rec.last_seen = now
            if rec.home_broker is not None:
                # Reconciliation: a direct (re-)registration outranks
                # anything learned through replication.
                rec.home_broker = None
        self.directory[req.peer_id] = req.hostname
        self.host.send(
            src, JoinAck(broker_id=self.peer_id, accepted=True), light=True
        )

    def _shard_owner_for(self, hostname: str) -> Optional[str]:
        """The owning broker for a host per our shard map, if known."""
        try:
            key = self.federation.shard_key_of(hostname)
            return self.shard_map.owner_of(key)
        except Exception:
            # Unknown host/shard: admit locally rather than bounce a
            # peer the map cannot place.
            return None

    def _on_leave(self, dgram: Datagram) -> None:
        notice: LeaveNotice = dgram.payload
        rec = self.registry.get(notice.peer_id)
        if rec is not None:
            rec.online = False

    def _on_keepalive(self, dgram: Datagram) -> None:
        beacon: KeepAlive = dgram.payload
        self._m_keepalives.inc()
        self.control_messages += 1
        rec = self.registry.get(beacon.peer_id)
        if rec is None:
            return
        now = self.sim._now
        pending_tasks = beacon.pending_tasks
        pending_transfers = beacon.pending_transfers
        rec.last_seen = now
        rec.pending_tasks = pending_tasks
        rec.pending_transfers = pending_transfers
        snapshot = rec.snapshot
        snapshot["outbox_len_now"] = float(beacon.outbox_len)
        snapshot["inbox_len_now"] = float(beacon.inbox_len)
        snapshot["pending_tasks"] = float(pending_tasks)
        snapshot["pending_transfers"] = float(pending_transfers)
        rec.freshness.stamp(_KEEPALIVE_KEYS, now)

    def _on_stat_report(self, dgram: Datagram) -> None:
        report: StatReport = dgram.payload
        self._m_stat_reports.inc()
        self.control_messages += 1
        rec = self.registry.get(report.peer_id)
        if rec is None:
            return
        now = self.sim._now
        counters = report.counters
        rec.last_seen = now
        rec.snapshot.update(counters)
        # A report is a whole PeerStats snapshot: its keys are
        # SNAPSHOT_KEYS, refreshed as one stamp.
        rec.freshness.stamp(SNAPSHOT_KEYS, now)

    def _on_publish(self, dgram: Datagram) -> None:
        pub: PublishAdvertisement = dgram.payload
        adv = pub.adv
        kind = _adv_kind(adv)
        if kind is not None:
            self._adv_index[kind].append(adv)
            if kind == "peer":
                self.directory[adv.peer_id] = adv.hostname

    def _on_discovery_query(self, dgram: Datagram) -> None:
        query: DiscoveryQuery = dgram.payload
        self._m_queries.inc()
        self.control_messages += 1
        now = self.sim.now
        matches = tuple(
            adv
            for adv in self._adv_index.get(query.adv_kind, ())
            if not adv.is_expired(now) and _matches(adv, query.attrs)
        )
        if (
            self.shard_map is not None
            and not query.fanout
            and not matches
            and len(self.shard_map.brokers) > 1
        ):
            # Local shard came up empty: resolve across the federation
            # before answering (the requester sees one reply either way).
            self.sim.process(
                self._federated_fanout(query, dgram.src),
                name=f"fanout@{self.name}",
            )
            return
        src = self.network.host(dgram.src)
        self.host.send(
            src,
            DiscoveryResponse(query_id=query.query_id, advertisements=matches),
            light=True,
        )

    def _federated_fanout(self, query: DiscoveryQuery, src_hostname: str):
        """Generator: resolve a miss across the other shards.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Queries the other alive brokers sequentially (deterministic map
        order) with ``fanout=True`` legs (no recursion), merges their
        matches, and answers the original requester on its query id.
        """
        merged: list = []
        for hostname in self.shard_map.brokers:
            if hostname == self.host.hostname:
                continue
            if self.gossip_agent is not None:
                other = self.federation.brokers.get(hostname)
                if other is not None and not self.gossip_agent.considers_alive(
                    other.name
                ):
                    continue
            qid = self.next_query_id()
            leg = DiscoveryQuery(
                requester=query.requester,
                adv_kind=query.adv_kind,
                attrs=query.attrs,
                query_id=qid,
                fanout=True,
            )
            self._m_fanout_queries.inc()
            try:
                resp: DiscoveryResponse = yield from self.sim.call(
                    self.request(
                        self.network.host(hostname),
                        leg,
                        ("disc", qid),
                        timeout=FANOUT_TIMEOUT_S,
                        retries=1,
                        light=True,
                    )
                )
            except (RequestTimeout, HostDownError):
                continue
            for adv in resp.advertisements:
                if adv not in merged:
                    merged.append(adv)
        if self.host.is_up:
            self.host.send(
                self.network.host(src_hostname),
                DiscoveryResponse(
                    query_id=query.query_id, advertisements=tuple(merged)
                ),
                light=True,
            )

    # -- gossip federation (sharded registry; see repro.gossip) ---------------

    def attach_federation(self, federation, agent) -> None:
        """Join a gossip federation: adopt its map, run its detector.

        ``agent`` is this broker's :class:`~repro.gossip.swim.SwimAgent`
        (full mesh over the other federation brokers).  The agent's
        membership view becomes the registry's liveness source: rumors
        about registered peers toggle their records' ``online`` flag,
        replacing the per-peer keepalive recency window.
        """
        from repro.gossip.messages import ShardMapUpdate

        self.federation = federation
        self.gossip_agent = agent
        agent.on_change.append(self._on_gossip_liveness)
        self.host.on_message(ShardMapUpdate, self._on_shard_map_update)
        self.adopt_shard_map(federation.shard_map)
        agent.start()

    def adopt_shard_map(self, new_map) -> tuple:
        """Adopt a fresher shard map; returns the shard keys gained.

        Emits one ``shard-handoff`` trace per gained shard.  Maps at or
        below the current version are ignored (idempotent under
        re-delivery and convergent recomputation).
        """
        old = self.shard_map
        if old is not None and new_map.version <= old.version:
            return ()
        mine = self.host.hostname
        before = old.shards_of(mine) if old is not None else ()
        after = new_map.shards_of(mine)
        gained = tuple(k for k in after if k not in before)
        self.shard_map = new_map
        self._m_shard_map_version.set(new_map.version)
        if gained and old is not None:
            self._m_shard_handoffs.inc(len(gained))
            for key in gained:
                self.network.tracer.record(
                    "shard-handoff",
                    self.sim.now,
                    shard=key,
                    to=self.name,
                    version=new_map.version,
                )
        return gained

    def _on_shard_map_update(self, dgram: Datagram) -> None:
        from repro.gossip.shard import ShardMap

        update = dgram.payload
        self.control_messages += 1
        incoming = ShardMap.from_wire(
            update.version, update.assignment, update.brokers
        )
        old = self.shard_map
        gained = self.adopt_shard_map(incoming)
        if self.federation is not None:
            if gained and old is not None:
                # Shards gained through a peer's recomputation: *we*
                # must seed the broker-death rumor into them — their
                # peers are now ours to rehome, and the detecting
                # broker only seeds the shards it gained itself.
                for hostname in old.brokers:
                    if hostname in incoming.brokers:
                        continue
                    self.federation.seed_broker_death(
                        self, hostname, gained
                    )
            if self.federation.shard_map.version < incoming.version:
                self.federation.shard_map = incoming

    def _on_gossip_liveness(self, state) -> None:
        """Project a SWIM view change onto the registry record."""
        rec = self._name_index.get(state.name)
        if rec is None:
            return
        if state.status == "alive":
            rec.online = True
            rec.last_seen = self.sim.now
        elif state.status == "dead":
            rec.online = False
        # A suspect stays eligible until declared dead: SWIM gives the
        # member the suspicion window to refute before we act on it.

    # -- state replication (failover support) ----------------------------------

    def _absorb_entries(self, origin: PeerId, entries) -> None:
        """Merge registry entries replicated by another broker.

        Entries merge by recency: a replica pair models one logical
        governor, so whichever side heard from the peer last wins.
        ``last_seen`` only ever moves forward.
        """
        now = self.sim.now
        for entry in entries:
            rec = self.registry.get(entry.peer_id)
            entry_seen = now - entry.seen_ago_s
            if rec is None:
                adv = PeerAdvertisement(
                    published_at=now,
                    peer_id=entry.peer_id,
                    name=entry.name,
                    hostname=entry.hostname,
                    cpu_speed=entry.cpu_speed,
                    kind=entry.kind,
                )
                rec = PeerRecord(
                    adv=adv,
                    joined_at=now,
                    last_seen=entry_seen,
                    home_broker=origin,
                )
                rec.perf = self.observed_perf(entry.peer_id)
                rec.interaction = self.interaction_stats(entry.hostname)
                self.registry[entry.peer_id] = rec
                self._name_index[entry.name] = rec
                self.directory[entry.peer_id] = entry.hostname
            if entry_seen >= rec.last_seen:
                rec.online = entry.online
                rec.pending_tasks = entry.pending_tasks
                rec.pending_transfers = entry.pending_transfers
                rec.snapshot.update(entry.snapshot)
                rec.freshness.note_many(entry.snapshot.keys(), entry_seen)
                rec.last_seen = entry_seen

    def replicate_to(
        self, other: PeerAdvertisement, interval_s: float = 30.0
    ) -> None:
        """Periodically replicate full broker state to ``other``.

        The :class:`StateSync` carries registry entries (with per-entry
        recency) and the discovery index, so the target can select over
        this broker's peers and take over as governor.
        Safe to call on both sides of a pair — entries merge by recency
        (see :meth:`_absorb_entries`).
        """
        if other.peer_id == self.peer_id:
            raise ValueError("a broker cannot replicate to itself")
        if other.kind != "broker":
            raise ValueError(f"{other.name!r} is not a broker")
        if interval_s <= 0:
            raise ValueError("interval must be > 0")
        self.learn(other)
        self.replicas[other.peer_id] = other
        self._replication_interval_s = interval_s
        if not self._replication_running:
            self._replication_running = True
            self.sim.process(
                self._replication_loop(), name=f"replication@{self.name}"
            )
        self._send_state_syncs()

    def state_sync(self) -> StateSync:
        """Snapshot this broker's replicable state."""
        now = self.sim.now
        entries = tuple(
            DigestEntry(
                peer_id=rec.peer_id,
                name=rec.adv.name,
                hostname=rec.adv.hostname,
                cpu_speed=rec.adv.cpu_speed,
                kind=rec.adv.kind,
                online=rec.online,
                pending_tasks=rec.pending_tasks,
                pending_transfers=rec.pending_transfers,
                snapshot=dict(rec.snapshot),
                seen_ago_s=max(0.0, now - rec.last_seen),
            )
            for rec in self.registry.values()
            if rec.is_local
        )
        advertisements = tuple(
            (kind, adv)
            for kind, advs in self._adv_index.items()
            for adv in advs
        )
        return StateSync(
            broker_id=self.peer_id,
            entries=entries,
            advertisements=advertisements,
        )

    def _send_state_syncs(self) -> None:
        if not self.host.is_up:
            return  # outage window: replication resumes on recovery
        sync = self.state_sync()
        for adv in self.replicas.values():
            dst = self.network.host(adv.hostname)
            self.host.send(dst, sync, light=True)

    def _replication_loop(self):
        while self.online and self.replicas:
            yield self._replication_interval_s
            self._send_state_syncs()

    def _on_state_sync(self, dgram: Datagram) -> None:
        sync: StateSync = dgram.payload
        self._m_state_syncs.inc()
        self._absorb_entries(sync.broker_id, sync.entries)
        for kind, adv in sync.advertisements:
            bucket = self._adv_index.get(kind)
            if bucket is not None and adv not in bucket:
                bucket.append(adv)
                if kind == "peer":
                    self.directory.setdefault(adv.peer_id, adv.hostname)

    #: A peer's handlers plus the governor's (see ``PeerNode._HANDLERS``).
    _HANDLERS = {
        **PeerNode._HANDLERS,
        JoinRequest: _on_join_request,
        LeaveNotice: _on_leave,
        KeepAlive: _on_keepalive,
        StatReport: _on_stat_report,
        DiscoveryQuery: _on_discovery_query,
        PublishAdvertisement: _on_publish,
        StateSync: _on_state_sync,
    }

    # -- planning estimates (economic model support) ------------------------------

    def estimate_transfer_seconds(self, rec: PeerRecord, bits: float) -> float:
        """Broker's estimate of transferring ``bits`` to ``rec``'s peer.

        Uses the observed EWMA goodput when history exists, else the
        node's planned (mean) access rate; adds the observed petition
        latency as fixed setup cost.  ``rec`` may come from another
        broker's registry (a federated candidate view).
        """
        host = self.network.host(rec.adv.hostname)
        fallback = min(self.host.planned_up_bps(), host.planned_down_bps())
        bps = rec.perf.estimated_transfer_bps(fallback)
        setup = rec.perf.estimated_petition_latency(host.overhead_mean())
        return setup + bits / bps

    def estimate_exec_seconds(self, rec: PeerRecord, ops: float) -> float:
        """Broker's estimate of executing ``ops`` on ``rec``'s peer."""
        host = self.network.host(rec.adv.hostname)
        fallback = ops / host.planned_compute_seconds(ops) if ops > 0 else 1.0
        rate = rec.perf.estimated_exec_rate(fallback)
        if rate <= 0:
            return float("inf")
        return ops / rate


def _adv_kind(adv: Advertisement) -> Optional[str]:
    """Map an advertisement instance to its discovery kind."""
    if isinstance(adv, PeerAdvertisement):
        return "peer"
    if isinstance(adv, ResourceAdvertisement):
        return "resource"
    return None


def _matches(adv: Advertisement, attrs) -> bool:
    """Equality filter on advertisement fields."""
    for key, want in attrs.items():
        if getattr(adv, key, None) != want:
            return False
    return True
