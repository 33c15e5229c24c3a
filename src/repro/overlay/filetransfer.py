"""The overlay's file-transmission protocol (the measured workload).

Protocol (paper §4.2): the sender issues a *petition* for the transfer;
the receiver acknowledges it; the file is then streamed in one or more
*parts*, and after each part the receiver confirms correct reception
and its availability to receive another part before the sender
proceeds.

Message classes and their cost model:

* ``FilePetition`` — heavy (first contact: pipe resolution + XML
  processing at the receiver).  Its delivery latency is exactly what
  the paper's Figure 2 reports per peer.
* bulk part data — a reliable unit transfer
  (:meth:`~repro.simnet.transport.Host.reliable_transfer`): whole-unit
  retransmission on loss, which is the mechanism behind Figure 5's
  granularity result.
* ``PartNotice`` / ``PartConfirm`` — light messages on the bound pipe;
  the receiver charges a part-persistence I/O delay before confirming.

Two sender APIs:

* :meth:`FileTransferService.send_file` — one-shot: petition, stream
  all parts, return a :class:`FileTransferOutcome`.
* :meth:`FileTransferService.open_transfer` — returns a
  :class:`TransferHandle` whose parts the caller sends one at a time
  (the Figure 6 experiment re-runs peer selection between parts, so it
  keeps one open handle per peer and routes each part to the currently
  selected peer).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import HostDownError, TransferAborted
from repro.obs.metrics import MetricsRegistry
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.ids import PeerId, TransferId
from repro.overlay.messages import (
    FilePetition,
    PartConfirm,
    PartNotice,
    PetitionAck,
    TransferCancel,
    TransferComplete,
)
from repro.simnet.transport import Datagram
from repro.units import mbit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.peer import PeerNode

__all__ = [
    "PartRecord",
    "FileTransferOutcome",
    "TransferHandle",
    "FileTransferService",
    "split_even",
    "part_digest",
]

#: ``FilePetition.n_parts`` value announcing an open-ended transfer.
OPEN_ENDED = 0
#: Bulk-unit stall-detection factor (see
#: :meth:`repro.simnet.transport.Host.reliable_transfer`).
BULK_LOSS_TIMEOUT_FACTOR = 1.0
#: Receiver-side I/O time to persist one received part: fixed seconds
#: plus size / io_rate.
PART_IO_FIXED_S = 0.35
PART_IO_BPS = 200_000_000.0


def split_even(total_bits: float, n_parts: int) -> List[float]:
    """Split ``total_bits`` into ``n_parts`` equal part sizes.

    The paper splits large files into fixed-size parts (50 Mb, 100 Mb,
    6.25 Mb ...); equal division reproduces that for the sizes used.
    """
    if total_bits <= 0:
        raise ValueError(f"total_bits must be > 0, got {total_bits}")
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    return [total_bits / n_parts] * n_parts


def part_digest(filename: str, index: int, size_bits: float) -> str:
    """Deterministic integrity digest for one file part.

    A pure function of the part's identity: both ends derive it
    independently, the receiver echoes it in its :class:`PartConfirm`,
    and the sender verifies the echo before the part counts as
    confirmed; a supervised delivery
    (:class:`~repro.swarm.coordinator.SwarmCoordinator`) then marks it
    proven in its piece tracker.  (The simulator carries no real
    payload bytes, so the identity tuple stands in for file content.)
    """
    text = f"{filename}|{index}|{size_bits!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class PartRecord:
    """Timing record of one transmitted unit."""

    index: int
    size_bits: float
    started_at: float
    bulk_done_at: float = 0.0
    confirmed_at: float = 0.0
    attempts: int = 0
    is_last_mb: bool = False
    #: Peer that received this part (per-part re-selection may route
    #: different parts of one logical file to different peers).
    dst: Optional[PeerId] = None

    @property
    def bulk_seconds(self) -> float:
        """Data-streaming time (including retransmissions)."""
        return self.bulk_done_at - self.started_at

    @property
    def total_seconds(self) -> float:
        """Streaming + notice/confirm round."""
        return self.confirmed_at - self.started_at


@dataclass
class FileTransferOutcome:
    """Everything measured about one file transmission."""

    transfer_id: TransferId
    src: PeerId
    dst: PeerId
    filename: str
    total_bits: float
    n_parts: int
    petition_sent_at: float
    petition_received_at: float = 0.0
    ack_received_at: float = 0.0
    petition_attempts: int = 0
    parts: List[PartRecord] = field(default_factory=list)
    finished_at: float = 0.0
    ok: bool = False

    @property
    def petition_time(self) -> float:
        """Time for the peer to receive the petition (Figure 2)."""
        return self.petition_received_at - self.petition_sent_at

    @property
    def total_duration(self) -> float:
        """Petition send to final confirm (end-to-end)."""
        return self.finished_at - self.petition_sent_at

    @property
    def transmission_time(self) -> float:
        """Pure data phase: first part start to final confirm
        (Figures 3 and 5 report this, net of the petition round)."""
        if not self.parts:
            return 0.0
        return self.finished_at - self.parts[0].started_at

    @property
    def last_mb_time(self) -> Optional[float]:
        """Time to complete the final Mb (Figure 4); None unless the
        transfer was run with ``measure_last_mb=True``."""
        for rec in reversed(self.parts):
            if rec.is_last_mb:
                return rec.total_seconds
        return None

    @property
    def total_attempts(self) -> int:
        """Bulk send attempts summed over all parts."""
        return sum(p.attempts for p in self.parts)


@dataclass
class _IncomingTransfer:
    """Receiver-side state for one inbound transfer."""

    petition: FilePetition
    confirmed_parts: Dict[int, float] = field(default_factory=dict)
    done: bool = False


class TransferHandle:
    """Sender-side handle on one open (petitioned) transfer.

    Obtained from :meth:`FileTransferService.open_transfer`.  Parts are
    sent one at a time with :meth:`send_part`; call :meth:`close` when
    done (or :meth:`cancel` to abandon).  Accumulates the same
    :class:`FileTransferOutcome` record as the one-shot API.
    """

    def __init__(
        self,
        service: "FileTransferService",
        dst_adv: PeerAdvertisement,
        outcome: FileTransferOutcome,
    ) -> None:
        self.service = service
        self.dst_adv = dst_adv
        self.outcome = outcome
        self._next_index = 0
        self.closed = False

    @property
    def transfer_id(self) -> TransferId:
        """The underlying transfer's id."""
        return self.outcome.transfer_id

    def send_part(
        self,
        size_bits: float,
        is_last_mb: bool = False,
        index: Optional[int] = None,
        cancel_if: Optional[Callable[[], bool]] = None,
    ):
        """Generator: stream one part and await its confirm.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        ``index`` defaults to the next sequential part number; a
        supervised delivery passes each piece's index explicitly so a
        leg that skips proven parts keeps each part's index, and so
        its digest.
        Returns the :class:`PartRecord`; raises :class:`TransferAborted`
        on retry exhaustion or integrity mismatch (the handle then
        cancels itself).

        ``cancel_if`` is the endgame hook for swarm downloads: checked
        once after the bulk stream lands, and if it returns True the
        notice/confirm round is skipped and the part returns ``None``
        (not recorded, not checkpointed) — another source proved the
        same piece while this copy was in flight.  The bulk unit
        itself cannot be recalled mid-flow.
        """
        if self.closed:
            raise TransferAborted(f"transfer {self.transfer_id.short} is closed")
        peer = self.service.peer
        sim = self.service.sim
        dst_host = peer.network.host(self.dst_adv.hostname)
        if index is None:
            index = self._next_index
            self._next_index += 1
        else:
            if index < 0:
                raise ValueError(f"part index must be >= 0, got {index}")
            self._next_index = max(self._next_index, index + 1)
        rec = PartRecord(
            index=index,
            size_bits=size_bits,
            started_at=sim.now,
            is_last_mb=is_last_mb,
            dst=self.dst_adv.peer_id,
        )
        try:
            report = yield from sim.call(
                peer.host.reliable_transfer(
                    dst_host,
                    size_bits,
                    max_attempts=peer.config.bulk_max_attempts,
                    loss_timeout_factor=BULK_LOSS_TIMEOUT_FACTOR,
                )
            )
            rec.attempts = report.attempts
            rec.bulk_done_at = sim.now
            if cancel_if is not None and cancel_if():
                return None
            expected = part_digest(self.outcome.filename, index, size_bits)
            notice = PartNotice(
                transfer_id=self.transfer_id,
                index=index,
                size_bits=size_bits,
                digest=expected,
            )
            confirm: PartConfirm = yield from sim.call(
                peer.request(
                    dst_host,
                    notice,
                    ("part-confirm", self.transfer_id, index),
                    timeout=peer.config.confirm_timeout_s,
                    retries=peer.config.confirm_retries,
                    light=True,
                )
            )
            if not confirm.ok:
                raise TransferAborted(f"part {index} rejected by receiver")
            if confirm.digest and confirm.digest != expected:
                raise TransferAborted(f"part {index} failed integrity check")
        except (TransferAborted, HostDownError):
            # HostDownError: our own host crashed between retries — the
            # cancel below still settles local accounting (the outbound
            # TransferCancel is skipped while down).
            self.cancel("retries exhausted")
            raise
        rec.confirmed_at = sim.now
        self.outcome.parts.append(rec)
        svc = self.service
        svc._m.parts_sent.inc()
        svc._m.part_bulk.observe(rec.bulk_seconds)
        svc._m.part_total.observe(rec.total_seconds)
        svc._m.part_attempts.observe(rec.attempts)
        # Per-part goodput observation for the selection models.
        if rec.bulk_seconds > 0:
            peer.observed_perf(self.dst_adv.peer_id).record_transfer(
                sim.now, size_bits, rec.total_seconds
            )
        return rec

    def close(self) -> FileTransferOutcome:
        """Finish the transfer: notify the receiver, record success."""
        if self.closed:
            return self.outcome
        peer = self.service.peer
        dst_host = peer.network.host(self.dst_adv.hostname)
        if peer.host.is_up:  # down: receiver learns via its own timeouts
            peer.host.send(
                dst_host,
                TransferComplete(
                    transfer_id=self.transfer_id, n_parts_sent=self._next_index
                ),
                light=True,
            )
        self.closed = True
        self.service._track_outgoing(self.dst_adv.hostname, -1)
        self.outcome.finished_at = self.service.sim.now
        self.outcome.ok = True
        self.service._m.transfers_ok.inc()
        self.service._m.transfer_total.observe(self.outcome.total_duration)
        peer.stats.pending_transfers -= 1
        peer.stats.record_file_attempt(self.service.sim.now, ok=True)
        peer.interaction_stats(self.dst_adv.hostname).record_file_attempt(
            self.service.sim.now, ok=True
        )
        return self.outcome

    def cancel(self, reason: str = "") -> None:
        """Abandon the transfer (records a cancellation)."""
        if self.closed:
            return
        peer = self.service.peer
        dst_host = peer.network.host(self.dst_adv.hostname)
        if peer.host.is_up:  # down: skip the wire, keep the accounting
            peer.host.send(
                dst_host,
                TransferCancel(transfer_id=self.transfer_id, reason=reason),
                light=True,
            )
        self.closed = True
        self.service._track_outgoing(self.dst_adv.hostname, -1)
        self.outcome.finished_at = self.service.sim.now
        self.outcome.ok = False
        self.service._m.transfers_cancelled.inc()
        peer.stats.pending_transfers -= 1
        peer.stats.record_file_attempt(self.service.sim.now, ok=False, cancelled=True)
        peer.interaction_stats(self.dst_adv.hostname).record_file_attempt(
            self.service.sim.now, ok=False, cancelled=True
        )


class TransferInstruments:
    """The transfer protocol's instruments in one registry.

    They are the quantities the paper's figures are built from
    (petition latency, Fig. 2; per-part times, Figs. 3/5; attempts, the
    loss-amplification mechanism) and the transfer outcomes.  A peer
    binds them when it is built, before its service exists, so a
    metrics export names them whether or not the peer transfers.
    """

    __slots__ = (
        "petition_latency", "petition_attempts", "part_total", "part_bulk",
        "part_attempts", "parts_sent", "transfer_total", "transfers_ok",
        "transfers_cancelled",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.petition_latency = reg.histogram("overlay.petition_latency_s")
        self.petition_attempts = reg.counter("overlay.petition_attempts")
        self.part_total = reg.histogram("overlay.part_transfer_s")
        self.part_bulk = reg.histogram("overlay.part_bulk_s")
        self.part_attempts = reg.histogram(
            "overlay.part_attempts", bounds=(1, 2, 3, 5, 10, 20, 50)
        )
        self.parts_sent = reg.counter("overlay.parts_sent")
        self.transfer_total = reg.histogram("overlay.transfer_total_s")
        self.transfers_ok = reg.counter("overlay.transfers_ok")
        self.transfers_cancelled = reg.counter("overlay.transfers_cancelled")


class FileTransferService:
    """Sender and receiver sides of the transfer protocol for one peer."""

    def __init__(self, peer: "PeerNode") -> None:
        self.peer = peer
        self.sim = peer.sim
        self._m = TransferInstruments(peer.metrics)
        self._incoming: Dict[TransferId, _IncomingTransfer] = {}
        #: Waiters for inbound file completions, keyed by filename
        #: (file-sharing fetches block on these).
        self._file_waiters: Dict[str, list] = {}
        #: Part indices still missing per swarmed filename (streams
        #: with ``FilePetition.file_parts`` set), shared by every open
        #: inbound stream of that file and dropped with the last one.
        #: Used only for membership and counting, never iterated.
        self._file_progress: Dict[str, set] = {}
        #: Open *outbound* handles per destination hostname — the
        #: ready-time estimator discounts these so a broker does not
        #: mistake its own open transfer for foreign load.
        self._outgoing_open: Dict[str, int] = {}

    def outgoing_open(self, hostname: str) -> int:
        """Open outbound transfers from this peer to ``hostname``."""
        return self._outgoing_open.get(hostname, 0)

    def _track_outgoing(self, hostname: str, delta: int) -> None:
        n = self._outgoing_open.get(hostname, 0) + delta
        if n:
            self._outgoing_open[hostname] = n
        else:
            self._outgoing_open.pop(hostname, None)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def open_transfer(
        self,
        dst_adv: PeerAdvertisement,
        filename: str,
        total_bits: float,
        n_parts_hint: int = OPEN_ENDED,
        file_parts: Tuple[int, ...] = (),
    ):
        """Generator: run the petition round and open a handle.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Returns a :class:`TransferHandle`.  Raises
        :class:`TransferAborted` if the receiver never acknowledges.

        ``file_parts`` marks this stream as one of several delivering
        the same logical file (a swarm download or a resumed send) and
        names the part indices the file still owes: the receiver then
        signals :meth:`wait_for_file` once every one of them is
        confirmed *across all streams*, instead of when any single
        stream completes.
        """
        peer = self.peer
        cfg = peer.config
        peer.learn(dst_adv)
        dst_host = peer.network.host(dst_adv.hostname)
        tid = peer.ids.transfer_id(f"{peer.name}->{dst_adv.name}:{filename}")
        outcome = FileTransferOutcome(
            transfer_id=tid,
            src=peer.peer_id,
            dst=dst_adv.peer_id,
            filename=filename,
            total_bits=total_bits,
            n_parts=n_parts_hint,
            petition_sent_at=self.sim.now,
        )
        petition = FilePetition(
            transfer_id=tid,
            sender=peer.peer_id,
            filename=filename,
            total_bits=total_bits,
            n_parts=n_parts_hint,
            file_parts=file_parts,
        )
        peer.stats.pending_transfers += 1
        try:
            for attempt in range(1, cfg.petition_retries + 1):
                waiter = peer.expect(("petition-ack", tid))
                sent_at = self.sim.now
                self._m.petition_attempts.inc()
                peer.host.send(dst_host, petition)  # heavy: first contact
                if (yield from self.sim.within(waiter, cfg.petition_timeout_s)):
                    ack: PetitionAck = waiter.value
                    peer.stats.record_message(self.sim.now, ok=True)
                    if not ack.accepted:
                        raise TransferAborted(
                            f"{dst_host.hostname} refused transfer"
                        )
                    # The ack may answer an *earlier* attempt that was
                    # still in flight when this resend went out; its
                    # reception then predates this attempt's send.
                    # Attribute the latency to the first send (which
                    # every ack postdates), never to a later one.
                    sent_basis = (
                        sent_at
                        if ack.received_at >= sent_at
                        else outcome.petition_sent_at
                    )
                    latency = ack.received_at - sent_basis
                    outcome.petition_sent_at = sent_basis
                    outcome.petition_received_at = ack.received_at
                    outcome.ack_received_at = self.sim.now
                    outcome.petition_attempts = attempt
                    peer.observed_perf(dst_adv.peer_id).record_petition_latency(
                        self.sim.now, latency
                    )
                    self._m.petition_latency.observe(latency)
                    self._track_outgoing(dst_adv.hostname, +1)
                    return TransferHandle(self, dst_adv, outcome)
                peer.cancel_wait(("petition-ack", tid), waiter)
                peer.stats.record_message(self.sim.now, ok=False)
            raise TransferAborted(
                f"petition to {dst_host.hostname} unanswered after "
                f"{cfg.petition_retries} attempts"
            )
        except (TransferAborted, HostDownError):
            # HostDownError: our own host crashed mid-petition; settle
            # the pending-transfer accounting exactly like an abort.
            peer.stats.pending_transfers -= 1
            self._m.transfers_cancelled.inc()
            peer.stats.record_file_attempt(self.sim.now, ok=False, cancelled=True)
            peer.interaction_stats(dst_adv.hostname).record_file_attempt(
                self.sim.now, ok=False, cancelled=True
            )
            raise

    def send_file(
        self,
        dst_adv: PeerAdvertisement,
        filename: str,
        total_bits: float,
        n_parts: int = 1,
        measure_last_mb: bool = False,
    ):
        """Generator: one-shot transmit of a whole file.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Petition -> ack -> per-part (bulk + confirm) -> complete.  With
        ``measure_last_mb=True`` the final megabit is transmitted as
        its own unit so Figure 4's "time of the last Mb" is observable.
        Returns a :class:`FileTransferOutcome`.
        """
        sizes = split_even(total_bits, n_parts)
        one_mb = mbit(1)
        if measure_last_mb and sizes[-1] > one_mb:
            last = sizes.pop()
            sizes.append(last - one_mb)
            sizes.append(one_mb)

        handle: TransferHandle = yield from self.sim.call(
            self.open_transfer(
                dst_adv, filename, total_bits, n_parts_hint=len(sizes)
            )
        )
        handle.outcome.n_parts = n_parts
        n_units = len(sizes)
        for index, size in enumerate(sizes):
            yield from self.sim.call(
                handle.send_part(
                    size,
                    is_last_mb=measure_last_mb and index == n_units - 1,
                )
            )
        outcome = handle.close()
        # Whole-file goodput feeds the ready-time estimator.
        hist = self.peer.observed_perf(dst_adv.peer_id)
        if outcome.transmission_time > 0:
            hist.record_transfer(
                self.sim.now, total_bits, outcome.transmission_time
            )
        return outcome

    # ------------------------------------------------------------------
    # Receiver side (driven by PeerNode's handlers)
    # ------------------------------------------------------------------

    def handle_petition(self, dgram: Datagram) -> None:
        """Accept an inbound transfer and ack readiness."""
        petition: FilePetition = dgram.payload
        peer = self.peer
        state = self._incoming.get(petition.transfer_id)
        if state is None:
            state = _IncomingTransfer(petition=petition)
            self._incoming[petition.transfer_id] = state
            peer.stats.pending_transfers += 1
        src_host = peer.network.host(dgram.src)
        ack = PetitionAck(
            transfer_id=petition.transfer_id,
            accepted=True,
            received_at=self.sim.now,
        )
        peer.host.send(src_host, ack, light=True)

    def handle_part_notice(self, dgram: Datagram) -> None:
        """Persist a received part (I/O delay), then confirm it."""
        notice: PartNotice = dgram.payload
        self.sim.process(
            self._confirm_part(dgram.src, notice),
            name=f"confirm@{self.peer.name}",
        )

    def _confirm_part(self, src_hostname: str, notice: PartNotice):
        peer = self.peer
        state = self._incoming.get(notice.transfer_id)
        src_host = peer.network.host(src_hostname)
        already = state is not None and notice.index in state.confirmed_parts
        if not already:
            io_s = PART_IO_FIXED_S + notice.size_bits / PART_IO_BPS
            yield io_s
            if state is not None:
                state.confirmed_parts[notice.index] = self.sim.now
                petition = state.petition
                if petition.file_parts and not state.done:
                    # Swarmed file: complete once every owed index is
                    # confirmed across all of its inbound streams.  A
                    # stream already ended adds nothing, so progress
                    # dies with the last open stream.
                    missing = self._file_progress.setdefault(
                        petition.filename, set(petition.file_parts)
                    )
                    missing.discard(notice.index)
                    if not missing:
                        del self._file_progress[petition.filename]
                        self._signal_file(petition)
                expected = petition.n_parts
                if expected != OPEN_ENDED and len(state.confirmed_parts) >= expected:
                    self._finish_incoming(state)
        if not peer.host.is_up:
            return  # crashed while persisting: nothing to confirm
        confirm = PartConfirm(
            transfer_id=notice.transfer_id,
            index=notice.index,
            ok=True,
            received_at=self.sim.now,
            # Independently derived (not parroted) when we hold the
            # petition, so the sender's verification is end-to-end.
            digest=(
                part_digest(
                    state.petition.filename, notice.index, notice.size_bits
                )
                if state is not None
                else notice.digest
            ),
        )
        peer.host.send(src_host, confirm, light=True)

    def _finish_incoming(self, state: _IncomingTransfer) -> None:
        if not state.done:
            state.done = True
            self.peer.stats.pending_transfers -= 1
            petition = state.petition
            if petition.file_parts:
                # One stream of a swarmed file closing says nothing
                # about the file: arrival is signalled from the
                # cross-stream progress in ``_confirm_part``, which the
                # last open stream takes with it.
                filename = petition.filename
                if not any(
                    not s.done and s.petition.filename == filename
                    and s.petition.file_parts
                    for s in self._incoming.values()
                ):
                    self._file_progress.pop(filename, None)
                return
            self._signal_file(petition)

    def _signal_file(self, petition: FilePetition) -> None:
        waiters = self._file_waiters.pop(petition.filename, None)
        if waiters:
            for ev in waiters:
                ev.succeed(petition)

    def wait_for_file(self, filename: str):
        """Event: an inbound transfer of ``filename`` completes.

        The event's value is the transfer's :class:`FilePetition`.
        Register before triggering the transfer to avoid races.
        """
        ev = self.sim.event(name=f"file-arrival({filename})@{self.peer.name}")
        self._file_waiters.setdefault(filename, []).append(ev)
        return ev

    def cancel_wait_for_file(self, filename: str, event) -> None:
        """Withdraw a :meth:`wait_for_file` registration."""
        waiters = self._file_waiters.get(filename)
        if waiters and event in waiters:
            waiters.remove(event)
            if not waiters:
                del self._file_waiters[filename]

    def handle_complete(self, dgram: Datagram) -> None:
        """Close receiver state for an open-ended transfer."""
        msg: TransferComplete = dgram.payload
        state = self._incoming.get(msg.transfer_id)
        if state is not None:
            self._finish_incoming(state)

    def handle_cancel(self, dgram: Datagram) -> None:
        """Drop receiver state for a cancelled transfer."""
        cancel: TransferCancel = dgram.payload
        state = self._incoming.pop(cancel.transfer_id, None)
        if state is not None:
            self._finish_incoming(state)

    def incoming_open(self) -> int:
        """Number of inbound transfers still in progress."""
        return sum(1 for s in self._incoming.values() if not s.done)
