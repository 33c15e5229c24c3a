"""Broker failover: standby supervision and leader handover.

The :class:`FailoverDirector` binds a primary/standby broker pair:

* the primary (and, symmetrically, the standby) replicates state with
  :meth:`~repro.overlay.broker.Broker.replicate_to` — registry entries
  with per-entry recency, the discovery index and peergroup membership
  — so the standby can govern without a warm-up round;
* the standby probes the primary over the simulated network; after
  :data:`FAILOVER_MISS_THRESHOLD` consecutive missed probes the standby is
  **promoted** — deterministically, since probe timing is pure sim
  time — and :attr:`leader` flips;
* promotion is sticky (no automatic fail-back): when the old primary
  recovers it rejoins as a replica of the acting leader, and peers that
  re-register directly are reconciled (their records become local again
  wherever they registered);
* when the standby runs a gossip agent (federated deployments, see
  :mod:`repro.gossip`), its SWIM view can **veto** a promotion: if the
  agent still believes the primary alive with a recent confirmation —
  e.g. an indirect ping-req path reached it while the standby's own
  probes are cut by a partial partition — the miss counter resets
  instead of promoting, so a partitioned-but-alive broker is never
  double-promoted.

Peer-side failover rides on the existing
:meth:`~repro.overlay.peer.PeerNode.enable_failover`: every client arms
the standby as backup and re-registers with it when its own pings to
the primary fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

from repro.errors import HostDownError
from repro.overlay.messages import Ping
from repro.overlay.peer import RequestTimeout
from repro.recovery.config import RecoveryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.broker import Broker

__all__ = ["FailoverEvent", "FailoverDirector"]

#: Standby's health-probe period against the primary (also the
#: peers' check period against their broker).
FAILOVER_CHECK_INTERVAL_S = 30.0
#: Per-probe ping timeout.
FAILOVER_PING_TIMEOUT_S = 10.0
#: Consecutive missed probes before the standby takes over.
FAILOVER_MISS_THRESHOLD = 2

#: Failover-latency histogram bounds (seconds).
_LATENCY_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0)


@dataclass(frozen=True)
class FailoverEvent:
    """One promotion: when the primary was first suspected and when
    the standby took over."""

    suspected_at: float
    promoted_at: float

    @property
    def latency_s(self) -> float:
        """Detection-to-handover time."""
        return self.promoted_at - self.suspected_at


class FailoverDirector:
    """Supervises a primary/standby broker pair."""

    def __init__(
        self,
        primary: "Broker",
        standby: "Broker",
        config: RecoveryConfig,
    ) -> None:
        if primary.peer_id == standby.peer_id:
            raise ValueError("primary and standby must be distinct brokers")
        self.primary = primary
        self.standby = standby
        self.config = config
        self.sim = primary.sim
        self.promoted = False
        self.suspected_at: float | None = None
        #: Completed promotions, in order.
        self.failovers: List[FailoverEvent] = []
        self._running = False
        reg = primary.metrics
        self._m_failovers = reg.counter("recovery.failovers")
        self._m_latency = reg.histogram(
            "recovery.failover_latency_s", bounds=_LATENCY_BUCKETS
        )
        self._m_suppressed = reg.counter("gossip.suppressed_promotions")
        #: Suppressions recorded (sim time, primary status) — exposed
        #: for tests and the resilience matrix.
        self.suppressions: List[float] = []

    @property
    def leader(self) -> "Broker":
        """The broker currently acting as governor."""
        return self.standby if self.promoted else self.primary

    def start(self) -> None:
        """Begin replication (both directions) and supervision."""
        if self._running:
            return
        self._running = True
        interval = self.config.replication_interval_s
        # Symmetric replication: the standby's copy stays warm, and
        # clients that rehomed to the standby during an outage keep
        # feeding the primary's registry through the back channel.
        self.primary.replicate_to(self.standby.advertisement(), interval)
        self.standby.replicate_to(self.primary.advertisement(), interval)
        self.sim.process(self._watch(), name=f"failover@{self.standby.name}")

    def mean_failover_latency_s(self) -> float:
        """Mean detection-to-handover latency (NaN when no failover)."""
        if not self.failovers:
            return float("nan")
        total = sum(e.latency_s for e in self.failovers)
        return total / len(self.failovers)

    # -- internals -----------------------------------------------------------

    def _watch(self):
        misses = 0
        while not self.promoted:
            yield FAILOVER_CHECK_INTERVAL_S
            if not self.standby.host.is_up:
                # The standby itself is down: it can judge nothing.
                misses = 0
                self.suspected_at = None
                continue
            probe_started = self.sim.now
            ok = yield self.sim.process(self._probe())
            if ok:
                misses = 0
                self.suspected_at = None
                continue
            misses += 1
            if self.suspected_at is None:
                self.suspected_at = probe_started
            if misses >= FAILOVER_MISS_THRESHOLD:
                if self._gossip_refutes():
                    # SWIM still vouches for the primary: a partial
                    # partition cut our probes, not the primary itself.
                    self._m_suppressed.inc()
                    self.suppressions.append(self.sim.now)
                    misses = 0
                    self.suspected_at = None
                    continue
                self._promote()
                return

    def _gossip_refutes(self) -> bool:
        """True when the standby's gossip view vouches for the primary.

        Requires both an ``alive`` status *and* a confirmation newer
        than when we first suspected it — a stale alive entry (no rumor
        traffic at all) must not block a legitimate promotion.
        """
        agent = self.standby.gossip_agent
        if agent is None:
            return False
        st = agent.state_of(self.primary.name)
        if st is None or st.status != "alive":
            return False
        since = self.suspected_at if self.suspected_at is not None else self.sim.now
        return st.confirmed_at >= since

    def _probe(self):
        """Generator process: one standby->primary liveness probe."""
        standby = self.standby
        primary_host = standby.network.host(self.primary.host.hostname)
        nonce = standby.next_query_id()
        try:
            yield self.sim.process(
                standby.request(
                    primary_host,
                    Ping(sender=standby.peer_id, nonce=nonce),
                    ("pong", nonce),
                    timeout=FAILOVER_PING_TIMEOUT_S,
                    retries=1,
                    light=True,
                )
            )
        except (RequestTimeout, HostDownError):
            return False
        return True

    def _promote(self) -> None:
        now = self.sim.now
        suspected = self.suspected_at if self.suspected_at is not None else now
        self.promoted = True
        event = FailoverEvent(suspected_at=suspected, promoted_at=now)
        self.failovers.append(event)
        self._m_failovers.inc()
        self._m_latency.observe(event.latency_s)
        self.primary.network.tracer.record(
            "broker-failover",
            now,
            leader=self.standby.name,
            latency_s=event.latency_s,
        )
