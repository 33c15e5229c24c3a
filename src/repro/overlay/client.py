"""Client peers.

JXTA-Overlay distinguishes *SimpleClient* (edge peer without GUI — the
kind used as SC1..SC8 in the paper's experiments) from *Client* (edge
peer with GUI).  The GUI is not modelled, so both are the same protocol
endpoint and differ only in the kind they advertise.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import HostDownError, NotConnectedError
from repro.overlay.peer import PeerNode, RequestTimeout

__all__ = ["SimpleClient", "Client"]

#: Attempt budget for a federated join walk (stale-map redirects plus
#: dead-broker skips).
JOIN_ATTEMPTS = 6


class SimpleClient(PeerNode):
    """Edge peer without GUI — the paper's SC nodes."""

    kind = "simpleclient"

    def join_federated(self, shard_map, broker_advs: Sequence, rejoin: bool = False):
        """Generator process: join a sharded federation.

        Walks from the map's opinion of our shard owner, following
        wrong-shard redirects (which carry the refusing broker's
        fresher map — the stale-shard-map retry path) and skipping
        brokers our gossip view believes dead.  Adopts every fresher
        map seen along the walk into ``self.shard_map``.  Returns the
        accepting broker's advertisement; raises
        :class:`~repro.errors.NotConnectedError` when the attempt
        budget is exhausted.
        """
        from repro.gossip.shard import ShardMap, region_shard_key

        self.shard_map = shard_map
        advs = {adv.hostname: adv for adv in broker_advs}
        key = region_shard_key(self.network, self.host.hostname)
        target = self.shard_map.owner_of(key)
        if rejoin:
            self.online = False
            if self.stats.session_active:
                self.stats.end_session()
        tried: dict = {}
        for _attempt in range(JOIN_ATTEMPTS):
            if self._believes_dead(target) or target in tried:
                target = self._next_untried_broker(tried, target)
                if target is None:
                    break
            adv = advs.get(target)
            if adv is None:
                tried[target] = True
                continue
            tried[target] = True
            try:
                ack = yield self.sim.process(
                    self.request(
                        self.network.host(target),
                        self._join_request(),
                        ("join", self.peer_id),
                        light=True,
                    )
                )
            except (RequestTimeout, HostDownError):
                continue
            if ack.accepted:
                self._finalize_join(adv, ack)
                if self.gossip_agent is not None:
                    self.gossip_agent.notify_hostname = target
                if rejoin:
                    # The old home's advertisement index died with it:
                    # relearn the new shard owner with what we share
                    # (a peer that never built its discovery service
                    # published nothing).
                    if self._discovery is not None:
                        self._discovery.republish()
                return adv
            if ack.shard_map is not None:
                fresher = ShardMap.from_wire(*ack.shard_map)
                if fresher.version > self.shard_map.version:
                    self.shard_map = fresher
                    self._m_stale_retries.inc()
            if ack.redirect_hostname and ack.redirect_hostname not in tried:
                target = ack.redirect_hostname
            else:
                target = self.shard_map.owner_of(key)
        raise NotConnectedError(
            f"{self.name}: federated join failed after {JOIN_ATTEMPTS} attempts"
        )

    def _join_request(self):
        from repro.overlay.messages import JoinRequest

        return JoinRequest(
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )

    def _believes_dead(self, hostname: str) -> bool:
        agent = self.gossip_agent
        if agent is None:
            return False
        for state in agent.table.values():
            if state.hostname == hostname:
                return state.status == "dead"
        return False

    def _next_untried_broker(self, tried: dict, current: str):
        """First map broker not yet tried and not believed dead."""
        for hostname in self.shard_map.brokers:
            if hostname not in tried and not self._believes_dead(hostname):
                return hostname
        return None


class Client(SimpleClient):
    """Edge peer with GUI (advertised as kind ``client``)."""

    kind = "client"
