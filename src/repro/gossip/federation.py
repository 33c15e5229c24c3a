"""Broker federation: sharded registry over gossip liveness.

A :class:`Federation` wires N brokers into one control plane:

* the registry is partitioned by shard key (region, by default) over a
  versioned :class:`~repro.gossip.shard.ShardMap`;
* the brokers run a full-mesh SWIM detector among themselves (fast
  probe interval — there are few of them); edge peers run SWIM over a
  sparse intra-shard graph (ring successors + seeded long links), so
  per-peer state and traffic stay O(1) in the population;
* when gossip declares a broker dead, every surviving broker applies
  the same deterministic :meth:`ShardMap.without_broker` recomputation
  locally, emits ``shard-handoff`` traces for the shards it gains,
  disseminates the new map to its peers (:class:`ShardMapUpdate`), and
  seeds the death rumor into the shards it just took over so orphaned
  edge peers rehome (their stale-map join walk ends at the new owner
  via the wrong-shard redirect).

The federation object holds the per-shard enrolment rosters used to
build gossip graphs and to seed rumors — a single-process stand-in for
the membership a real deployment would carry in replicated registry
state.  All wire traffic (probes, acks, notifies, redirects, fan-out
queries) still flows through the simulated network, so wire-path
determinism and fault sensitivity are preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.gossip.config import GossipConfig
from repro.gossip.messages import GossipNotify, Rumor, ShardMapUpdate
from repro.gossip.shard import ShardMap, build_shard_map, region_shard_key
from repro.gossip.swim import SwimAgent

__all__ = ["Federation"]

#: Ring successors each peer tracks and probes (failure-detection
#: coverage: every peer is watched by this many predecessors).
RING_SUCCESSORS = 2
#: Extra deterministic "long links" per peer into its shard roster
#: (keeps the rumor graph's diameter logarithmic — a ring alone
#: spreads rumors in O(n/k) rounds).
LONG_LINKS = 2
#: Probe period of the broker-to-broker full mesh (brokers are few,
#: so they afford a faster detector than the edge).
BROKER_PROBE_INTERVAL_S = 15.0
#: Members each surviving broker seeds a broker-death rumor to, per
#: owned shard, so edge peers learn of the death and rehome.
SEED_FANOUT = 8
#: Whole rehome walks attempted after a home-broker death (a shard's
#: worth of peers rejoins at once, so early walks can exhaust their
#: budget against busy survivors).
REHOME_RETRIES = 3
#: Pause between rehome walk retries.
REHOME_BACKOFF_S = 60.0


class Federation:
    """N brokers sharing one sharded, gossip-governed registry."""

    def __init__(
        self,
        network,
        brokers: Sequence,
        config: Optional[GossipConfig] = None,
    ) -> None:
        if not brokers:
            raise ConfigError("a federation needs at least one broker")
        self.network = network
        self.sim = network.sim
        self.config = config or GossipConfig()
        #: hostname -> Broker, in sorted-hostname order (map order).
        self.brokers: Dict[str, object] = {
            b.host.hostname: b for b in sorted(brokers, key=lambda b: b.host.hostname)
        }
        if len(self.brokers) != len(brokers):
            raise ConfigError("federation brokers must have distinct hostnames")
        self._broker_names: Dict[str, str] = {
            b.name: b.host.hostname for b in self.brokers.values()
        }
        regions = dict.fromkeys(
            region_shard_key(network, hostname)
            for hostname in network.topology.hostnames()
        )
        self.shard_map: ShardMap = build_shard_map(regions, self.brokers)
        #: shard key -> [(peer name, hostname), ...] in enrolment order.
        self.rosters: Dict[str, List[Tuple[str, str]]] = {
            key: [] for key, _owner in self.shard_map.assignment
        }
        #: Enrolled edge peers by name.
        self.peers: Dict[str, object] = {}
        #: Edge-peer agents by name (created by :meth:`start_gossip`).
        self.agents: Dict[str, SwimAgent] = {}

        for broker in self.brokers.values():
            agent = SwimAgent(
                broker,
                self.config,
                probe_interval_s=BROKER_PROBE_INTERVAL_S,
                track_unknown=True,
            )
            for other in self.brokers.values():
                if other is not broker:
                    agent.track(other.name, other.host.hostname)
            agent.probe_ring = [
                other.name for other in self.brokers.values() if other is not broker
            ]
            agent.on_change.append(
                lambda st, b=broker: self._on_broker_view_change(b, st)
            )
            broker.attach_federation(self, agent)

    # -- lookups -------------------------------------------------------------

    def shard_key_of(self, hostname: str) -> str:
        """The shard key a host belongs to."""
        return region_shard_key(self.network, hostname)

    def broker_advs(self) -> List:
        """Advertisements of every federation broker, in map order."""
        return [b.advertisement() for b in self.brokers.values()]

    # -- enrolment & gossip graphs ------------------------------------------

    def enroll(self, peer) -> str:
        """Register an edge peer in its shard roster; returns the key."""
        key = self.shard_key_of(peer.host.hostname)
        roster = self.rosters.get(key)
        if roster is None:
            roster = self.rosters[key] = []
        roster.append((peer.name, peer.host.hostname))
        self.peers[peer.name] = peer
        return key

    def start_gossip(self) -> None:
        """Build gossip graphs and start agents for enrolled peers.

        Idempotent and incremental: peers enrolled since the last call
        get agents wired over the rosters as of *this* call.  The graph
        per peer is its :data:`RING_SUCCESSORS` roster successors (failure
        detection coverage) plus :data:`LONG_LINKS` seeded random members
        (logarithmic rumor diameter); every peer also tracks the
        brokers so a broker-death rumor can trigger rehoming.
        """
        for key, roster in self.rosters.items():
            n = len(roster)
            for idx, (name, _hostname) in enumerate(roster):
                if name in self.agents or name not in self.peers:
                    continue
                peer = self.peers[name]
                home = peer.broker_adv.hostname if peer.broker_adv else None
                agent = SwimAgent(peer, self.config, notify_hostname=home)
                neighbors: Dict[str, str] = {}
                for step in range(1, min(RING_SUCCESSORS, n - 1) + 1):
                    succ_name, succ_host = roster[(idx + step) % n]
                    neighbors[succ_name] = succ_host
                others = [
                    (m, h)
                    for m, h in roster
                    if m != name and m not in neighbors
                ]
                if others:
                    k = min(LONG_LINKS, len(others))
                    picked = agent.rng.choice(
                        len(others), size=k, replace=False
                    )
                    for i in sorted(picked):
                        m, h = others[int(i)]
                        neighbors[m] = h
                for m, h in neighbors.items():
                    agent.track(m, h)
                agent.probe_ring = list(neighbors)
                for broker in self.brokers.values():
                    agent.track(broker.name, broker.host.hostname)
                agent.on_change.append(
                    lambda st, p=peer, a=agent: self._on_peer_view_change(p, a, st)
                )
                peer.gossip_agent = agent
                self.agents[name] = agent
                agent.start()

    # -- broker death & shard handoff ---------------------------------------

    def _on_broker_view_change(self, observer, state) -> None:
        if state.status != "dead" or state.name not in self._broker_names:
            return
        self._handle_broker_death(observer, state)

    def _handle_broker_death(self, observer, state) -> None:
        dead_hostname = state.hostname
        current = observer.shard_map
        if dead_hostname not in current.brokers:
            return  # already applied (e.g. learned via ShardMapUpdate)
        new_map = current.without_broker(dead_hostname)
        gained = observer.adopt_shard_map(new_map)
        # Disseminate the recomputed map to the surviving brokers.  All
        # survivors recompute identically, so this only accelerates
        # convergence (and covers a survivor that missed the death).
        update = ShardMapUpdate(
            sender=observer.name,
            version=new_map.version,
            assignment=new_map.assignment,
            brokers=new_map.brokers,
        )
        if observer.host.is_up:
            for hostname in new_map.brokers:
                if hostname == observer.host.hostname:
                    continue
                observer.host.send(
                    self.network.host(hostname), update, light=True
                )
        # Seed the death rumor into the shards this broker just gained:
        # their peers were homed on the dead broker and must rehome.
        self.seed_broker_death(observer, dead_hostname, gained)
        if self.shard_map.version < new_map.version:
            self.shard_map = new_map

    def seed_broker_death(self, observer, dead_hostname: str, shard_keys) -> None:
        """Seed a broker-death rumor into the given shards' rosters.

        Called by whichever surviving broker gains a shard — whether it
        detected the death itself or learned it from a peer's
        :class:`ShardMapUpdate` — so every orphaned shard hears the
        rumor and its peers rehome.  Also folds the death into the
        observer's own SWIM view (it may not have timed the victim out
        yet).
        """
        dead = self.brokers.get(dead_hostname)
        if dead is None:
            return
        st = None
        if observer.gossip_agent is not None:
            st = observer.gossip_agent.state_of(dead.name)
        rumor = Rumor(
            member=dead.name,
            hostname=dead_hostname,
            status="dead",
            incarnation=st.incarnation if st is not None else 0,
        )
        if observer.gossip_agent is not None:
            observer.gossip_agent.absorb(rumor)
        if not observer.host.is_up:
            return
        for key in shard_keys:
            for name, hostname in self._seed_targets(key):
                observer.host.send(
                    self.network.host(hostname),
                    GossipNotify(sender=observer.name, rumors=(rumor,)),
                    light=True,
                )

    def _seed_targets(self, shard_key: str) -> List[Tuple[str, str]]:
        """:data:`SEED_FANOUT` members of a shard roster, stride-sampled.

        The gossip graph's failure-detection edges are ring
        *successors*, so the first k roster members share most of
        their neighborhoods — seeding them yields one slow infection
        front.  Striding across the roster starts k well-separated
        fronts instead, cutting rumor spread to the far side of a big
        shard by roughly a factor of k.
        """
        roster = self.rosters.get(shard_key, ())
        if len(roster) <= SEED_FANOUT:
            return list(roster)
        stride = len(roster) // SEED_FANOUT
        return [roster[i * stride] for i in range(SEED_FANOUT)]

    # -- peer rehoming -------------------------------------------------------

    def _on_peer_view_change(self, peer, agent, state) -> None:
        if state.status != "dead" or state.name not in self._broker_names:
            return
        if (
            peer.online
            and peer.broker_adv is not None
            and peer.broker_adv.hostname == state.hostname
        ):
            self.sim.process(
                self._rehome(peer, agent), name=f"rehome@{peer.name}"
            )

    def _rehome(self, peer, agent):
        """Generator process: walk the (stale) map to a new home broker.

        A whole shard rehomes at once, so a walk can exhaust its
        attempt budget against briefly overloaded survivors; it is
        retried with a backoff rather than stranding the peer.
        """
        from repro.overlay.peer import RequestTimeout
        from repro.errors import HostDownError, NotConnectedError

        for retry in range(REHOME_RETRIES):
            try:
                yield self.sim.process(
                    peer.join_federated(
                        peer.shard_map, self.broker_advs(), rejoin=True
                    )
                )
            except (RequestTimeout, NotConnectedError, HostDownError):
                if retry + 1 < REHOME_RETRIES:
                    yield REHOME_BACKOFF_S
                continue
            agent.notify_hostname = peer.broker_adv.hostname
            return
