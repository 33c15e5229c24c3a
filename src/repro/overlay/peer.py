"""Peer node base class.

A :class:`PeerNode` binds one simulated :class:`~repro.simnet.transport.Host`
into the overlay: identity, broker membership, request/reply plumbing
with timeouts and retries, local statistics, and the receiver sides of
the file-transfer and task-execution protocols.  SimpleClient/Client
subclasses live in :mod:`repro.overlay.client`; the Broker subclass in
:mod:`repro.overlay.broker`.

Request/reply correlation
-------------------------
The transport is fire-and-forget, so every conversation correlates
replies through *waiter keys* — e.g. ``("ack", transfer_id)`` or
``("task-result", task_id)``.  :meth:`PeerNode.request` implements the
generic retry loop: send, wait for the waiter or a timeout, resend up
to ``retries`` times, and record the attempt in the peer's message
statistics (feeding the §2.2 "percentage of successfully sent
messages" criteria).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    ConfigError,
    HostDownError,
    NotConnectedError,
    OverlayError,
)
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.discovery import DiscoveryInstruments, DiscoveryService
from repro.overlay.filesharing import FileSharingService
from repro.overlay.filetransfer import FileTransferService, TransferInstruments
from repro.overlay.ids import IdFactory, PeerId
from repro.overlay.messages import (
    DiscoveryResponse,
    FilePetition,
    FileRequest,
    FileRequestAck,
    JoinAck,
    JoinRequest,
    KeepAlive,
    Ping,
    Pong,
    PartConfirm,
    PartNotice,
    PetitionAck,
    StatReport,
    TaskAccept,
    TaskReject,
    TaskResult,
    TaskQuery,
    TaskSubmit,
    TransferCancel,
    TransferComplete,
)
from repro.overlay.statistics import PeerStats, PerformanceHistory
from repro.overlay.taskexec import TaskExecutionService
from repro.simnet.kernel import Event
from repro.simnet.transport import Datagram, Host, Network

__all__ = ["PeerConfig", "PeerNode", "RequestTimeout"]

#: Statistics push period (seconds).
STAT_REPORT_INTERVAL_S = 60.0

#: Name of every reply-waiter event.  A constant: ``request`` makes
#: one per attempt, and :class:`RequestTimeout` already names the
#: payload type.
_WAIT_EVENT_NAME = "reply-wait"


class RequestTimeout(OverlayError):
    """A request exhausted its retries without a reply."""


@dataclass
class PeerConfig:
    """Tunable protocol parameters for one peer."""

    #: Liveness beacon period (seconds).
    keepalive_interval_s: float = 30.0
    #: Timeout for the file-transfer petition round.  Must exceed the
    #: slowest node's first-contact overhead (SC7 ~ 27 s).
    petition_timeout_s: float = 120.0
    #: Petition attempts; an unanswered one is resent at once.
    petition_retries: int = 5
    #: Timeout for per-part confirm rounds (light messages).
    confirm_timeout_s: float = 30.0
    confirm_retries: int = 5
    #: Generic request timeout (join, discovery, task submit).
    request_timeout_s: float = 120.0
    request_retries: int = 3
    #: Max queued + running tasks before the peer rejects submissions.
    task_queue_limit: int = 4
    #: Bulk-unit retry budget (see
    #: :meth:`repro.simnet.transport.Host.reliable_transfer`).
    bulk_max_attempts: int = 50

    def __post_init__(self) -> None:
        for name in (
            "keepalive_interval_s",
            "petition_timeout_s",
            "confirm_timeout_s",
            "request_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("petition_retries", "confirm_retries", "request_retries",
                     "bulk_max_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.task_queue_limit < 1:
            raise ConfigError("task_queue_limit must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "PeerConfig":
        """Build from a ``dataclasses.asdict`` dict; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown peer_config keys: {sorted(unknown)}")
        return cls(**data)


class PeerNode:
    """One overlay peer bound to a simulated host."""

    kind = "simpleclient"

    def __init__(
        self,
        network: Network,
        hostname: str,
        ids: IdFactory,
        name: Optional[str] = None,
        config: Optional[PeerConfig] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.host: Host = network.host(hostname)
        self.ids = ids
        self.peer_id: PeerId = ids.peer_id(hostname)
        self.name = name or hostname
        self.config = config or PeerConfig()

        #: Shared metrics registry (no-op unless one is installed).
        self.metrics = network.metrics
        self._m_pending_transfers = self.metrics.histogram(
            "peer.pending_transfers", bounds=(0, 1, 2, 5, 10, 20, 50, 100)
        )
        self._m_pending_tasks = self.metrics.histogram(
            "peer.pending_tasks", bounds=(0, 1, 2, 5, 10, 20, 50, 100)
        )
        self._m_request_timeouts = self.metrics.counter("peer.request_timeouts")
        self._m_stale_retries = self.metrics.counter("gossip.stale_shard_retries")
        # The services are built on first use (the properties below),
        # but their instruments are bound with the peer, so a metrics
        # export names them whether or not a service ran.
        TransferInstruments(self.metrics)
        DiscoveryInstruments(self.metrics)

        #: Local statistics (this peer's own accounting).
        self.stats = PeerStats()
        #: What this peer has observed about *other* peers, by PeerId.
        self.observed: Dict[PeerId, PerformanceHistory] = {}
        #: Per-destination interaction accounting (hostname-keyed):
        #: message/transfer outcomes of *this* peer's conversations with
        #: each remote — "historical data kept for the peergroup" when
        #: this peer is a broker.
        self.interactions: Dict[str, PeerStats] = {}
        #: PeerId -> hostname, learned from advertisements/messages.
        self.directory: Dict[PeerId, str] = {self.peer_id: hostname}

        self.broker_adv: Optional[PeerAdvertisement] = None
        self.online = False
        #: Control-plane message count (gossip probes/acks/notifies and
        #: federation traffic handled by this peer).  A plain integer —
        #: registry-independent, so experiment rows stay deterministic.
        self.control_messages = 0
        #: SWIM agent, when the federation wires one (see repro.gossip).
        self.gossip_agent = None
        #: This peer's (possibly stale) copy of the federation shard
        #: map; None outside federations.
        self.shard_map = None

        self._waiters: Dict[Any, list[Event]] = {}
        self._next_query_id = 0
        self.host.serve(self)

        # Protocol services, each built on its first use: most peers
        # only beacon.  These are their backing fields.  A peer keeps
        # every attribute it will hold set here, in this order: CPython
        # shares one key table among the instance dicts of a class only
        # while each holds the same keys (at most 30), in the same
        # order, so an attribute added on first use costs every peer a
        # full dict.
        self._transfers: Optional[FileTransferService] = None
        self._tasks: Optional[TaskExecutionService] = None
        self._discovery: Optional[DiscoveryService] = None
        self._sharing: Optional[FileSharingService] = None

    # -- services -------------------------------------------------------------

    @property
    def transfers(self) -> FileTransferService:
        """The file-transfer service (built on first use)."""
        svc = self._transfers
        if svc is None:
            svc = self._transfers = FileTransferService(self)
        return svc

    @property
    def tasks(self) -> TaskExecutionService:
        """The task-execution service (built on first use)."""
        svc = self._tasks
        if svc is None:
            svc = self._tasks = TaskExecutionService(self)
        return svc

    @property
    def discovery(self) -> DiscoveryService:
        """The discovery service (built on first use)."""
        svc = self._discovery
        if svc is None:
            svc = self._discovery = DiscoveryService(self)
        return svc

    @property
    def sharing(self) -> FileSharingService:
        """The file-sharing service (built on first use)."""
        svc = self._sharing
        if svc is None:
            svc = self._sharing = FileSharingService(self)
        return svc

    # -- identity -----------------------------------------------------------

    def advertisement(self) -> PeerAdvertisement:
        """This peer's current advertisement."""
        return PeerAdvertisement(
            published_at=self.sim.now,
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )

    def learn(self, adv: PeerAdvertisement) -> None:
        """Record the id->hostname mapping from an advertisement."""
        self.directory[adv.peer_id] = adv.hostname

    # -- waiter plumbing ---------------------------------------------------------

    def expect(self, key: Any) -> Event:
        """Register interest in the reply identified by ``key``."""
        ev = self.sim.event(name=_WAIT_EVENT_NAME)
        self._waiters.setdefault(key, []).append(ev)
        return ev

    def cancel_wait(self, key: Any, ev: Event) -> None:
        """Withdraw a waiter (after a timeout)."""
        lst = self._waiters.get(key)
        if lst and ev in lst:
            lst.remove(ev)
            if not lst:
                del self._waiters[key]

    def fulfill(self, key: Any, value: Any) -> bool:
        """Wake the oldest waiter on ``key``; False if nobody waits."""
        lst = self._waiters.get(key)
        if not lst:
            return False
        ev = lst.pop(0)
        if not lst:
            del self._waiters[key]
        ev.succeed(value)
        return True

    def request(
        self,
        dst: Host,
        payload: Any,
        key: Any,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        light: bool = False,
    ):
        """Generator: send ``payload`` and await the reply.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Retries up to ``retries`` times with fresh sends; raises
        :class:`RequestTimeout` when exhausted.  Every attempt outcome
        is recorded in the local message statistics.
        """
        timeout = self.config.request_timeout_s if timeout is None else timeout
        retries = self.config.request_retries if retries is None else retries
        dst_stats = self.interaction_stats(dst.hostname)
        for _attempt in range(retries):
            waiter = self.expect(key)
            self.host.send(dst, payload, light=light)
            if (yield from self.sim.within(waiter, timeout)):
                self.stats.record_message(self.sim.now, ok=True)
                dst_stats.record_message(self.sim.now, ok=True)
                return waiter.value
            self.cancel_wait(key, waiter)
            self.stats.record_message(self.sim.now, ok=False)
            dst_stats.record_message(self.sim.now, ok=False)
        self._m_request_timeouts.inc()
        raise RequestTimeout(
            f"{self.name}: no reply for {type(payload).__name__} "
            f"after {retries} attempts"
        )

    # -- handlers --------------------------------------------------------------------

    # Each handler is a method named in the class's ``_HANDLERS``
    # table (below the methods).  The host binds one on the first
    # delivery of its payload type (see ``Host.serve``), so a peer
    # pays only for the types it receives.

    def handler_for(self, payload_type: type) -> Optional[Callable[[Datagram], None]]:
        """This node's handler for ``payload_type``, bound (None if unhandled)."""
        fn = self._HANDLERS.get(payload_type)
        return None if fn is None else fn.__get__(self)

    # membership ------------------------------------------------------------

    def _on_join_ack(self, dgram: Datagram) -> None:
        ack: JoinAck = dgram.payload
        self.fulfill(("join", self.peer_id), ack)

    # file transfer (correlation + delegation) --------------------------------

    def _on_petition_ack(self, dgram: Datagram) -> None:
        ack: PetitionAck = dgram.payload
        self.fulfill(("petition-ack", ack.transfer_id), ack)

    def _on_part_confirm(self, dgram: Datagram) -> None:
        c: PartConfirm = dgram.payload
        self.fulfill(("part-confirm", c.transfer_id, c.index), c)

    def _on_file_petition(self, dgram: Datagram) -> None:
        self.transfers.handle_petition(dgram)

    def _on_part_notice(self, dgram: Datagram) -> None:
        self.transfers.handle_part_notice(dgram)

    def _on_transfer_cancel(self, dgram: Datagram) -> None:
        self.transfers.handle_cancel(dgram)

    def _on_transfer_complete(self, dgram: Datagram) -> None:
        self.transfers.handle_complete(dgram)

    # tasks --------------------------------------------------------------------

    def _on_task_submit(self, dgram: Datagram) -> None:
        self.tasks.handle_submit(dgram)

    def _on_task_query(self, dgram: Datagram) -> None:
        self.tasks.handle_query(dgram)

    def _on_task_accept(self, dgram: Datagram) -> None:
        a: TaskAccept = dgram.payload
        self.fulfill(("task-decision", a.task_id), a)

    def _on_task_reject(self, dgram: Datagram) -> None:
        r: TaskReject = dgram.payload
        self.fulfill(("task-decision", r.task_id), r)

    def _on_task_result(self, dgram: Datagram) -> None:
        r: TaskResult = dgram.payload
        self.fulfill(("task-result", r.task_id), r)

    # discovery & liveness -------------------------------------------------------

    def _on_discovery_response(self, dgram: Datagram) -> None:
        resp: DiscoveryResponse = dgram.payload
        self.fulfill(("disc", resp.query_id), resp)

    def _on_ping(self, dgram: Datagram) -> None:
        ping: Ping = dgram.payload
        if self.host.is_up:
            src = self.network.host(dgram.src)
            self.host.send(src, Pong(nonce=ping.nonce), light=True)

    def _on_pong(self, dgram: Datagram) -> None:
        pong: Pong = dgram.payload
        self.fulfill(("pong", pong.nonce), pong)

    # file sharing -------------------------------------------------------------

    def _on_file_request(self, dgram: Datagram) -> None:
        self.sharing.handle_request(dgram)

    def _on_file_request_ack(self, dgram: Datagram) -> None:
        ack: FileRequestAck = dgram.payload
        self.fulfill(("file-req", ack.filename), ack)

    #: Payload type -> handler method of every message a peer serves.
    _HANDLERS: Dict[type, Callable] = {
        JoinAck: _on_join_ack,
        PetitionAck: _on_petition_ack,
        PartConfirm: _on_part_confirm,
        FilePetition: _on_file_petition,
        PartNotice: _on_part_notice,
        TransferCancel: _on_transfer_cancel,
        TransferComplete: _on_transfer_complete,
        TaskSubmit: _on_task_submit,
        TaskQuery: _on_task_query,
        TaskAccept: _on_task_accept,
        TaskReject: _on_task_reject,
        TaskResult: _on_task_result,
        DiscoveryResponse: _on_discovery_response,
        Ping: _on_ping,
        Pong: _on_pong,
        FileRequest: _on_file_request,
        FileRequestAck: _on_file_request_ack,
    }

    # -- broker membership ---------------------------------------------------------

    def connect(self, broker_adv: PeerAdvertisement):
        """Generator: join the overlay through a broker.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Sends ``JoinRequest`` and waits for the ``JoinAck``; on success
        opens a local session and starts the keepalive/stat-report
        loops — the broker's liveness source.  Federated peers join
        through :meth:`~repro.overlay.client.SimpleClient.join_federated`
        instead, where SWIM probing plus event-driven ``GossipNotify``
        replaces the beacons.  Returns the :class:`JoinAck`.
        """
        self.learn(broker_adv)
        broker_host = self.network.host(broker_adv.hostname)
        req = JoinRequest(
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )
        ack: JoinAck = yield from self.sim.call(
            self.request(broker_host, req, ("join", self.peer_id))
        )
        if not ack.accepted:
            raise NotConnectedError(f"{self.name}: join refused: {ack.reason}")
        self._finalize_join(broker_adv, ack)
        self.sim.wake_in(0.0, self._keepalive_beat)
        self.sim.wake_in(0.0, self._stat_report_beat)
        return ack

    def _finalize_join(self, broker_adv: PeerAdvertisement, ack: JoinAck) -> None:
        """Adopt an accepted broker: session and directory."""
        self.broker_adv = broker_adv
        self.directory[ack.broker_id] = broker_adv.hostname
        self.online = True
        if not self.stats.session_active:
            self.stats.start_session()

    def _broker_host(self) -> Host:
        if self.broker_adv is None:
            raise NotConnectedError(f"{self.name} has no broker")
        return self.network.host(self.broker_adv.hostname)

    # Each beacon loop is a chain of kernel timers: a beat sends (while
    # the host is up) and re-arms itself with ``wake_in``, at the
    # agenda key a ``yield interval`` gets, until the peer goes
    # offline.  An idle peer then holds one pending timer per loop,
    # not a generator, a process and a timeout.  Each ``connect``
    # starts its own chains.

    def _keepalive_beat(self) -> None:
        if not self.online:
            return
        host = self.host
        # A crashed host sends nothing until recovery.
        if host._is_up:
            stats = self.stats
            outbox_len = stats.pending_transfers
            # The inbox is the pending tasks: every payload a peer
            # receives has a handler, so no message waits unread.
            pending_tasks = stats.pending_tasks
            stats.sample_queues(outbox_len, pending_tasks)
            # Queue-occupancy sampling rides the keepalive cadence so
            # every connected peer reports at the same sim-time rhythm.
            self._m_pending_transfers.observe(outbox_len)
            self._m_pending_tasks.observe(pending_tasks)
            # KeepAlive(peer_id, outbox_len, inbox_len, pending_tasks,
            # pending_transfers): the outbox is the pending transfers.
            beacon = KeepAlive(
                self.peer_id, outbox_len, pending_tasks, pending_tasks, outbox_len
            )
            host.send(self._broker_host(), beacon, light=True)
        self.sim.wake_in(self.config.keepalive_interval_s, self._keepalive_beat)

    def _stat_report_beat(self) -> None:
        if not self.online:
            return
        host = self.host
        if host._is_up:
            report = StatReport(self.peer_id, self.stats.snapshot(self.sim._now))
            host.send(self._broker_host(), report, light=True)
        self.sim.wake_in(STAT_REPORT_INTERVAL_S, self._stat_report_beat)

    # -- broker liveness & failover ------------------------------------------------

    def ping_broker(self, timeout: Optional[float] = None):
        """Generator: probe the current broker's liveness.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Returns True when the broker answers within ``timeout``; False
        otherwise (never raises).
        """
        if self.broker_adv is None:
            raise NotConnectedError(f"{self.name} has no broker")
        timeout = self.config.request_timeout_s if timeout is None else timeout
        nonce = self.next_query_id()
        try:
            yield from self.sim.call(
                self.request(
                    self._broker_host(),
                    Ping(sender=self.peer_id, nonce=nonce),
                    ("pong", nonce),
                    timeout=timeout,
                    retries=1,
                    light=True,
                )
            )
            return True
        except (RequestTimeout, HostDownError):
            # HostDownError = our *own* host died mid-probe; treat the
            # probe as unanswered and let the caller re-check is_up.
            return False

    def enable_failover(
        self,
        backups: "list[PeerAdvertisement]",
        check_interval_s: float = 60.0,
        ping_timeout_s: float = 20.0,
    ) -> None:
        """Watch the current broker; rehome to a backup if it dies.

        Backups are tried in order; the failover loop keeps running, so
        a chain of broker failures walks down the list.  Requires the
        peer to be online.  The loop holds the list itself, so arming
        failover adds no attribute to the peer.
        """
        if not self.online:
            raise NotConnectedError(f"{self.name} is not connected")
        if check_interval_s <= 0 or ping_timeout_s <= 0:
            raise ValueError("failover intervals must be > 0")
        self.sim.process(
            self._failover_loop(list(backups), check_interval_s, ping_timeout_s),
            name=f"failover@{self.name}",
        )

    def _failover_loop(
        self, backups: "list[PeerAdvertisement]", interval: float, ping_timeout: float
    ):
        while self.online:
            yield interval
            if not self.host.is_up or self.broker_adv is None:
                continue
            alive = yield from self.sim.call(self.ping_broker(ping_timeout))
            if alive:
                continue
            if not self.host.is_up:
                # We crashed mid-probe; the broker was never judged.
                continue
            dead = self.broker_adv
            for backup in list(backups):
                if backup.peer_id == dead.peer_id:
                    continue
                try:
                    self.online = False  # suspend periodic loops
                    if self.stats.session_active:
                        self.stats.end_session()
                    yield from self.sim.call(self.connect(backup))
                    backups.remove(backup)
                    backups.append(dead)  # demote the dead one
                    break
                except (RequestTimeout, NotConnectedError, HostDownError):
                    continue
            else:
                # No backup answered: stay with the old broker and
                # keep probing.
                self.online = True
                if not self.stats.session_active:
                    self.stats.start_session()

    # -- observation helpers ----------------------------------------------------------

    def observed_perf(self, peer_id: PeerId) -> PerformanceHistory:
        """This peer's performance history for ``peer_id`` (create-on-use)."""
        hist = self.observed.get(peer_id)
        if hist is None:
            hist = PerformanceHistory()
            self.observed[peer_id] = hist
        return hist

    def interaction_stats(self, hostname: str) -> PeerStats:
        """Per-destination interaction accounting (create-on-use)."""
        stats = self.interactions.get(hostname)
        if stats is None:
            stats = PeerStats()
            self.interactions[hostname] = stats
        return stats

    def next_query_id(self) -> int:
        """Mint a correlation id for discovery queries."""
        self._next_query_id += 1
        return self._next_query_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ({self.kind})>"
