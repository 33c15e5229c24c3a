"""SWIM-style failure detector with piggybacked rumor dissemination.

One :class:`SwimAgent` rides on one :class:`~repro.overlay.peer.PeerNode`
and implements the three SWIM components:

* **Probing** — every ``probe_interval_s`` the agent pings the next
  member of its (deterministic, seeded-staggered) probe ring; a missed
  direct ack triggers :data:`PING_REQ_FANOUT` indirect probes through
  proxies before the target is suspected.
* **Suspicion** — suspect→dead after ``suspect_timeout_s`` unless the
  member refutes by re-announcing itself *alive* at a higher
  incarnation number.  Only the member itself bumps its incarnation,
  which is what makes refutations authoritative.  Pings to a suspected
  member always carry the suspicion, so the member learns it is being
  doubted and can refute on the ack path.
* **Dissemination** — membership deltas ride as rumors piggybacked on
  probe traffic, each retransmitted a bounded number of times
  (:data:`RUMOR_RETRANSMITS`); fresh *locally declared* rumors are
  additionally pushed to the agent's ``notify_hostname`` (the shard
  broker) so the registry learns liveness from churn events instead of
  per-peer keepalive beacons.

Determinism: probe stagger, ring order and proxy choice come from the
run's named RNG tree (substream ``gossip/<peer name>``); all timing is
pure simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.gossip.config import GossipConfig
from repro.gossip.messages import (
    GossipAck,
    GossipNotify,
    GossipPing,
    GossipPingReq,
    Rumor,
)
from repro.simnet.kernel import Event
from repro.simnet.transport import Datagram

__all__ = ["MemberState", "SwimAgent"]

#: How many proxies a failed direct probe asks to ping-req the
#: target (SWIM's k).
PING_REQ_FANOUT = 2
#: Max rumors piggybacked on one ping/ack.
PIGGYBACK_MAX = 8
#: Times each agent re-transmits a rumor before retiring it (bounded
#: retransmission; ~lambda*log n copies network-wide).
RUMOR_RETRANSMITS = 6

#: Status strength at equal incarnation: dead > suspect > alive.
_RANK = {"alive": 0, "suspect": 1, "dead": 2}


@dataclass
class MemberState:
    """What one agent believes about one member."""

    name: str
    hostname: str
    status: str
    incarnation: int
    #: When the status last changed (sim time).
    changed_at: float
    #: Last direct or indirect confirmation of liveness.
    confirmed_at: float


class SwimAgent:
    """SWIM failure detection bound to one overlay peer."""

    def __init__(
        self,
        peer,
        config: GossipConfig,
        probe_interval_s: Optional[float] = None,
        notify_hostname: Optional[str] = None,
        track_unknown: bool = False,
    ) -> None:
        self.peer = peer
        self.sim = peer.sim
        self.config = config
        self.probe_interval_s = (
            config.probe_interval_s if probe_interval_s is None else probe_interval_s
        )
        #: Where locally declared rumors are pushed (the shard broker);
        #: None on brokers (they *are* the destination).
        self.notify_hostname = notify_hostname
        #: Absorb rumors about members we were never told to track
        #: (brokers govern whole shards; edge peers keep a bounded view).
        self.track_unknown = track_unknown
        self.rng = peer.network.streams.get(f"gossip/{peer.name}")
        self.incarnation = 0
        #: Insertion-ordered membership view (name -> state).
        self.table: Dict[str, MemberState] = {}
        #: Members this agent actively probes, cycled round-robin.
        self.probe_ring: List[str] = []
        #: Pending rumors: member -> [rumor, remaining retransmits].
        self._rumors: Dict[str, List] = {}
        self._ring_idx = 0
        self._running = False
        #: The armed probe tick (None before the start and mid-round).
        self._tick: Optional[Event] = None
        #: Outstanding probes: nonce -> (subject, continuation, deadline).
        self._pending: Dict[int, Tuple[object, Callable, Event]] = {}
        #: Observers called with each MemberState whose status changed.
        self.on_change: List[Callable[[MemberState], None]] = []
        #: Plain counters (registry-independent, for experiment rows):
        #: suspicions this agent came to believe, and how many of those
        #: were refuted by a live member (false suspicions).
        self.suspect_events = 0
        self.false_suspect_events = 0

        reg = peer.metrics
        self._m_probes = reg.counter("gossip.probes")
        self._m_ping_reqs = reg.counter("gossip.ping_reqs")
        self._m_suspects = reg.counter("gossip.suspects")
        self._m_deaths = reg.counter("gossip.deaths")
        self._m_refutations = reg.counter("gossip.refutations")
        self._m_false_suspects = reg.counter("gossip.false_suspects")
        self._m_rumors_sent = reg.counter("gossip.rumors_sent")
        self._m_notifies = reg.counter("gossip.notifies")
        self._m_members = reg.gauge("gossip.members")

        h = peer.host
        h.on_message(GossipPing, self._on_gossip_ping)
        h.on_message(GossipAck, self._on_gossip_ack)
        h.on_message(GossipPingReq, self._on_gossip_ping_req)
        h.on_message(GossipNotify, self._on_gossip_notify)

    # -- membership view -----------------------------------------------------

    def track(self, name: str, hostname: str) -> MemberState:
        """Start tracking a member (idempotent)."""
        st = self.table.get(name)
        if st is None:
            now = self.sim.now
            st = MemberState(
                name=name,
                hostname=hostname,
                status="alive",
                incarnation=0,
                changed_at=now,
                confirmed_at=now,
            )
            self.table[name] = st
            self._m_members.set(len(self.table))
        return st

    def state_of(self, name: str) -> Optional[MemberState]:
        """Current belief about a member (None when untracked)."""
        return self.table.get(name)

    def considers_alive(self, name: str) -> bool:
        """True while the member's status is ``alive``."""
        st = self.table.get(name)
        return st is not None and st.status == "alive"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the probe timer chain (idempotent)."""
        if self._running:
            return
        self._running = True
        # Seeded stagger so a population started together does not
        # probe in lockstep bursts.
        self._arm_tick(self.rng.uniform(0.0, self.probe_interval_s))

    # -- probing -------------------------------------------------------------
    # No process per probe: a tick pings the next ring member, and the
    # first of its ack (``_on_gossip_ack``) or its deadline runs the
    # continuation, which starts the ping-req phase or ends the round.

    def _arm_tick(self, delay: float) -> None:
        if self._tick is None:
            self._tick = self.sim.call_in(delay, self._probe_tick)

    def _probe_tick(self) -> None:
        self._tick = None
        target = self._next_target() if self.peer.host.is_up else None
        if target is None:
            self._arm_tick(self.probe_interval_s)
        else:
            self._m_probes.inc()
            self._ping(target, self.table[target].hostname, self._direct_done, target)

    def _next_target(self) -> Optional[str]:
        """Next non-dead ring member, round-robin."""
        ring = self.probe_ring
        for _ in range(len(ring)):
            name = ring[self._ring_idx % len(ring)]
            self._ring_idx += 1
            st = self.table.get(name)
            if st is not None and st.status != "dead":
                return name
        return None

    def _ping(self, about: str, hostname: str, done: Callable, subject) -> None:
        """Ping ``hostname``, piggybacking our view of member ``about``."""
        ping = GossipPing(
            sender=self.peer.name,
            sender_hostname=self.peer.host.hostname,
            nonce=self.peer.next_query_id(),
            rumors=self._take_piggyback(about=about),
        )
        self._send_probe(ping, (hostname,), done, subject)

    def _send_probe(self, msg, hostnames, done: Callable, subject) -> None:
        """Send ``msg`` to each host; ``done(subject, acked)`` then runs
        once, on the first ack carrying ``msg.nonce`` or at its deadline."""
        for hostname in hostnames:
            self.peer.host.send(self.peer.network.host(hostname), msg, light=True)
        deadline = self.sim.call_in(
            self.config.probe_timeout_s, self._ack_deadline, msg.nonce
        )
        self._pending[msg.nonce] = (subject, done, deadline)

    def _ack_deadline(self, nonce: int) -> None:
        subject, done, _deadline = self._pending.pop(nonce)
        done(subject, False)

    def _direct_done(self, name: str, acked: bool) -> None:
        """Direct ping over: end the round, or ping-req through proxies."""
        if not self.peer.host.is_up:
            # Our own host went down mid-round: no ping-req and no
            # suspicion, as in :meth:`_probe_tick`.
            self._arm_tick(self.probe_interval_s)
            return
        proxies = [] if acked else self._pick_proxies(exclude=name)
        if not proxies:
            self._round_done(name, acked)
            return
        self._m_ping_reqs.inc(len(proxies))
        req = GossipPingReq(
            sender=self.peer.name,
            sender_hostname=self.peer.host.hostname,
            nonce=self.peer.next_query_id(),
            target=name,
            target_hostname=self.table[name].hostname,
            rumors=self._take_piggyback(about=name),
        )
        proxy_hosts = [self.table[proxy].hostname for proxy in proxies]
        self._send_probe(req, proxy_hosts, self._round_done, name)

    def _round_done(self, name: str, acked: bool) -> None:
        """Suspect an unconfirmed member, then re-arm the tick."""
        if not acked and self.peer.host.is_up:
            self._declare_suspect(name)
        self._arm_tick(self.probe_interval_s)

    def _pick_proxies(self, exclude: str) -> List[str]:
        """Seeded-deterministic proxy choice for an indirect probe."""
        alive = [
            n
            for n, st in self.table.items()
            if st.status == "alive" and n != exclude
        ]
        k = min(PING_REQ_FANOUT, len(alive))
        if k <= 0:
            return []
        idx = self.rng.choice(len(alive), size=k, replace=False)
        return [alive[int(i)] for i in sorted(idx)]

    # -- state transitions ---------------------------------------------------

    def _confirm(self, name: str) -> None:
        st = self.table.get(name)
        if st is None:
            return
        st.confirmed_at = self.sim.now
        # A suspicion is only lifted by the member's own refutation
        # (higher incarnation, via absorb) — a bare ack is necessary
        # but not sufficient, exactly as in SWIM.

    def _declare_suspect(self, name: str) -> None:
        st = self.table.get(name)
        if st is None or st.status != "alive":
            return
        now = self.sim.now
        st.status = "suspect"
        st.changed_at = now
        self._m_suspects.inc()
        self.suspect_events += 1
        self.peer.network.tracer.record(
            "gossip-suspect", now, member=name, by=self.peer.name
        )
        rumor = Rumor(
            member=name,
            hostname=st.hostname,
            status="suspect",
            incarnation=st.incarnation,
        )
        self._queue_rumor(rumor)
        self._notify((rumor,))
        self._arm_suspect_timer(name, st.incarnation)
        self._fire_change(st)

    def _arm_suspect_timer(self, name: str, incarnation: int) -> None:
        self.sim.call_in(
            self.config.suspect_timeout_s, self._suspect_expired, name, incarnation
        )

    def _suspect_expired(self, name: str, incarnation: int) -> None:
        st = self.table.get(name)
        if st is None or st.status != "suspect" or st.incarnation != incarnation:
            return  # refuted (or already dead) in the meantime
        self._declare_dead(st)

    def _declare_dead(self, st: MemberState) -> None:
        now = self.sim.now
        st.status = "dead"
        st.changed_at = now
        self._m_deaths.inc()
        self.peer.network.tracer.record(
            "gossip-dead", now, member=st.name, by=self.peer.name
        )
        rumor = Rumor(
            member=st.name,
            hostname=st.hostname,
            status="dead",
            incarnation=st.incarnation,
        )
        self._queue_rumor(rumor)
        self._notify((rumor,))
        self._fire_change(st)

    def _fire_change(self, st: MemberState) -> None:
        for cb in self.on_change:
            cb(st)

    # -- rumor handling ------------------------------------------------------

    def absorb(self, rumor: Rumor) -> None:
        """Apply one incoming rumor under SWIM precedence rules."""
        if rumor.member == self.peer.name:
            self._maybe_refute(rumor)
            return
        st = self.table.get(rumor.member)
        if st is None:
            if not self.track_unknown:
                return
            st = self.track(rumor.member, rumor.hostname)
        if st.status == "dead":
            return  # death is final; a dead member rejoins explicitly
        stronger = rumor.incarnation > st.incarnation or (
            rumor.incarnation == st.incarnation
            and _RANK[rumor.status] > _RANK[st.status]
        )
        if not stronger:
            return
        was_suspect = st.status == "suspect"
        st.incarnation = rumor.incarnation
        st.changed_at = self.sim.now
        if rumor.status == "alive":
            st.status = "alive"
            st.confirmed_at = self.sim.now
            if was_suspect:
                # The member refuted a suspicion we believed.
                self._m_false_suspects.inc()
                self.false_suspect_events += 1
        elif rumor.status == "suspect":
            st.status = "suspect"
            self.suspect_events += 1
            self._arm_suspect_timer(st.name, st.incarnation)
        else:
            st.status = "dead"
        self._queue_rumor(rumor)
        self._fire_change(st)

    def _maybe_refute(self, rumor: Rumor) -> None:
        """Refute suspicion/death gossip about *this* peer."""
        if rumor.status == "alive" or rumor.incarnation < self.incarnation:
            return
        self.incarnation = rumor.incarnation + 1
        self._m_refutations.inc()
        refute = Rumor(
            member=self.peer.name,
            hostname=self.peer.host.hostname,
            status="alive",
            incarnation=self.incarnation,
        )
        self._queue_rumor(refute)
        self._notify((refute,))

    def _queue_rumor(self, rumor: Rumor) -> None:
        self._rumors[rumor.member] = [rumor, RUMOR_RETRANSMITS]

    def _take_piggyback(self, about: Optional[str] = None) -> Tuple[Rumor, ...]:
        """Up to :data:`PIGGYBACK_MAX` pending rumors, FIFO by first queue.

        ``about`` forces a rumor describing our current belief about
        that member — pinging a suspect always tells it so, giving it
        the chance to refute on the ack path.
        """
        out: List[Rumor] = []
        if about is not None:
            st = self.table.get(about)
            if st is not None and st.status != "alive":
                out.append(
                    Rumor(
                        member=st.name,
                        hostname=st.hostname,
                        status=st.status,
                        incarnation=st.incarnation,
                    )
                )
        retired = []
        for member, slot in self._rumors.items():
            if len(out) >= PIGGYBACK_MAX:
                break
            rumor, _remaining = slot
            if about is not None and member == about:
                continue
            out.append(rumor)
            slot[1] -= 1
            if slot[1] <= 0:
                retired.append(member)
        for member in retired:
            del self._rumors[member]
        if out:
            self._m_rumors_sent.inc(len(out))
        return tuple(out)

    def _notify(self, rumors: Tuple[Rumor, ...]) -> None:
        """Push locally declared rumors to the shard broker."""
        if self.notify_hostname is None or not self.peer.host.is_up:
            return
        self._m_notifies.inc()
        self.peer.host.send(
            self.peer.network.host(self.notify_hostname),
            GossipNotify(sender=self.peer.name, rumors=rumors),
            light=True,
        )

    # -- wire handlers -------------------------------------------------------

    def _absorb_all(self, rumors: Tuple[Rumor, ...]) -> None:
        for rumor in rumors:
            self.absorb(rumor)

    def _on_gossip_ping(self, dgram: Datagram) -> None:
        ping: GossipPing = dgram.payload
        self.peer.control_messages += 1
        self._absorb_all(ping.rumors)
        self._confirm(ping.sender)
        if not self.peer.host.is_up:
            return
        ack = GossipAck(
            sender=self.peer.name,
            nonce=ping.nonce,
            rumors=self._take_piggyback(),
        )
        self.peer.host.send(
            self.peer.network.host(ping.sender_hostname), ack, light=True
        )

    def _on_gossip_ack(self, dgram: Datagram) -> None:
        ack: GossipAck = dgram.payload
        self.peer.control_messages += 1
        self._absorb_all(ack.rumors)
        self._confirm(ack.sender)  # a late or duplicate ack only confirms
        entry = self._pending.pop(ack.nonce, None)
        if entry is not None:
            subject, done, deadline = entry
            self.sim.cancel(deadline)
            done(subject, True)

    def _on_gossip_ping_req(self, dgram: Datagram) -> None:
        req: GossipPingReq = dgram.payload
        self.peer.control_messages += 1
        self._absorb_all(req.rumors)
        self._ping(req.target, req.target_hostname, self._relay_done, req)

    def _relay_done(self, req: GossipPingReq, acked: bool) -> None:
        """Proxy side of a ping-req: relay the target's ack to the origin."""
        if acked:
            relay = GossipAck(
                sender=req.target, nonce=req.nonce, rumors=self._take_piggyback()
            )
            self.peer.host.send(
                self.peer.network.host(req.sender_hostname), relay, light=True
            )

    def _on_gossip_notify(self, dgram: Datagram) -> None:
        notify: GossipNotify = dgram.payload
        self.peer.control_messages += 1
        self._absorb_all(notify.rumors)
