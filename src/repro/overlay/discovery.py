"""Client-side discovery service.

Peers discover resources (other peers and shared files) by querying
their broker's advertisement index; results are cached locally with
their advertised lifetimes, JXTA-style.  JXTA's pipe and peergroup
advertisements are not modelled.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, TYPE_CHECKING

from repro.errors import NotConnectedError
from repro.obs.metrics import MetricsRegistry
from repro.overlay.advertisements import Advertisement, PeerAdvertisement
from repro.overlay.messages import DiscoveryQuery, DiscoveryResponse, PublishAdvertisement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.peer import PeerNode

__all__ = ["DiscoveryService"]


class DiscoveryInstruments:
    """The discovery service's instruments in one registry.

    A peer binds them when it is built, before its service exists, so
    a metrics export names them whether or not the peer queries.
    """

    __slots__ = ("latency", "attempts", "failures")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.latency = reg.histogram(
            "overlay.discovery_latency_s",
            bounds=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 120.0),
        )
        self.attempts = reg.counter("overlay.discovery_attempts")
        self.failures = reg.counter("overlay.discovery_failures")


class DiscoveryService:
    """Publish/query advertisements through the peer's broker."""

    def __init__(self, peer: "PeerNode") -> None:
        self.peer = peer
        self.sim = peer.sim
        #: Everything this peer published, in publish order — the
        #: source of truth for :meth:`republish` after a rehome (the
        #: old home's index dies with it).
        self.published: List[Advertisement] = []
        self._m = DiscoveryInstruments(peer.metrics)

    def publish(self, adv: Advertisement) -> None:
        """Push an advertisement to the broker's index (fire-and-forget)."""
        peer = self.peer
        if peer.broker_adv is None:
            raise NotConnectedError(f"{peer.name} has no broker to publish to")
        if adv not in self.published:
            self.published.append(adv)
        broker_host = peer.network.host(peer.broker_adv.hostname)
        peer.host.send(
            broker_host,
            PublishAdvertisement(publisher=peer.peer_id, adv=adv),
            light=True,
        )

    def republish(self) -> int:
        """Re-push every still-fresh published advertisement to the
        *current* broker.  Called after a rehome: the old home's index
        died with it, so the new shard owner must relearn what this
        peer shares.  Returns how many advertisements were re-sent.
        """
        peer = self.peer
        if peer.broker_adv is None:
            raise NotConnectedError(f"{peer.name} has no broker to publish to")
        now = self.sim.now
        broker_host = peer.network.host(peer.broker_adv.hostname)
        fresh = [a for a in self.published if not a.is_expired(now)]
        self.published = fresh
        for adv in fresh:
            peer.host.send(
                broker_host,
                PublishAdvertisement(publisher=peer.peer_id, adv=adv),
                light=True,
            )
        return len(fresh)

    def query(
        self,
        adv_kind: str,
        attrs: Optional[Mapping[str, Any]] = None,
    ):
        """Generator: remote-query the broker.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Returns the tuple of matching advertisements; peer
        advertisements are also folded into the peer's directory
        (id -> hostname).
        """
        peer = self.peer
        if peer.broker_adv is None:
            raise NotConnectedError(f"{peer.name} has no broker to query")
        broker_host = peer.network.host(peer.broker_adv.hostname)
        qid = peer.next_query_id()
        query = DiscoveryQuery(
            requester=peer.peer_id,
            adv_kind=adv_kind,
            attrs=dict(attrs or {}),
            query_id=qid,
        )
        self._m.attempts.inc()
        started = self.sim.now
        try:
            resp: DiscoveryResponse = yield from self.sim.call(
                peer.request(broker_host, query, ("disc", qid), light=True)
            )
        except Exception:
            self._m.failures.inc()
            raise
        self._m.latency.observe(self.sim.now - started)
        advs = resp.advertisements
        for adv in advs:
            if isinstance(adv, PeerAdvertisement):
                peer.learn(adv)
        return advs

