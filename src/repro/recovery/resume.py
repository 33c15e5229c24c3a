"""Checkpoint/resume transfer driver.

:class:`ResumableSender` wraps a peer's
:class:`~repro.overlay.filetransfer.FileTransferService` with the
part-level checkpointing of a
:class:`~repro.recovery.ledger.TransferLedger`:

* every confirmed part is recorded in the ledger with its integrity
  digest (the service writes the proof; the sender only reads it);
* when an attempt dies mid-file (crash, loss burst, petition timeout)
  the next attempt re-opens a transfer covering **only the unproven
  parts** — possibly to a different peer, chosen by the caller's
  selection function;
* while the sender's own host is down (NodeCrash windows) the petition
  is *queued*, not lost: the driver polls under a deadline and resumes
  when the host restarts, so supervision is bounded instead of
  stalling.

``send_file`` never raises — it always returns a
:class:`ResumeOutcome` so experiment accounting can classify every
offered transfer (completed / expired) without exception plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import HostDownError, RecoveryError, TransferAborted
from repro.overlay.filetransfer import FileTransferOutcome, split_even
from repro.overlay.ids import PeerId
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.peer import PeerNode, RequestTimeout
from repro.recovery.config import RecoveryConfig
from repro.recovery.ledger import TransferLedger

__all__ = ["ResumeOutcome", "ResumableSender"]

#: Supervision-wait histogram bounds (seconds).
_WAIT_BUCKETS = (1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0)

#: A selection callback: ``(attempt, failed_peer_ids) -> advertisement``
#: (or ``None`` when no candidate is currently available).
SelectFn = Callable[[int, Tuple[PeerId, ...]], Optional[PeerAdvertisement]]


@dataclass
class ResumeOutcome:
    """Everything measured about one supervised (possibly multi-
    attempt) file delivery."""

    filename: str
    ok: bool = False
    #: Transfer attempts that reached the petition stage.
    attempts: int = 0
    #: Attempts after the first that skipped already-proven parts.
    resumes: int = 0
    parts_total: int = 0
    parts_sent: int = 0
    #: Parts skipped because a prior attempt already proved them.
    parts_skipped: int = 0
    #: Bits covered by skipped (checkpoint-recovered) parts.
    recovered_bits: float = 0.0
    total_bits: float = 0.0
    #: Time spent queued while the sender's host was down.
    waited_s: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Receiving peers, one per attempt that opened a transfer.
    peers: Tuple[PeerId, ...] = ()
    #: Why the delivery ended without success ("" when ok).
    reason: str = ""
    #: Per-attempt protocol outcomes, in order.
    outcomes: List[FileTransferOutcome] = field(default_factory=list)

    @property
    def data_seconds(self) -> float:
        """Pure data-phase time summed over attempts that moved parts."""
        return sum(
            o.transmission_time for o in self.outcomes if o.parts
        )


class ResumableSender:
    """Deadline-supervised, checkpoint-resuming file delivery for one
    sending peer."""

    def __init__(
        self,
        peer: PeerNode,
        config: RecoveryConfig,
        ledger: Optional[TransferLedger] = None,
    ) -> None:
        self.peer = peer
        self.sim = peer.sim
        self.config = config
        self.ledger = ledger if ledger is not None else TransferLedger()
        # The transfer service writes proofs as parts confirm.
        peer.transfers.ledger = self.ledger
        reg = peer.metrics
        self._m_resumes = reg.counter("recovery.resumes")
        self._m_parts_skipped = reg.counter("recovery.parts_skipped")
        self._m_recovered = reg.counter("recovery.transfers_recovered")
        self._m_expired = reg.counter("recovery.transfers_expired")
        self._m_recovered_mbit = reg.counter("recovery.recovered_mbit")
        self._m_wait = reg.histogram(
            "recovery.supervision_wait_s", bounds=_WAIT_BUCKETS
        )

    def send_file(
        self,
        select: SelectFn,
        filename: str,
        total_bits: float,
        n_parts: int = 1,
    ):
        """Generator process: deliver ``filename`` under supervision.

        ``select`` is called before every attempt with the attempt
        number (1-based) and the ids of peers that already failed this
        delivery; it returns the next receiver (or ``None`` to wait
        one backoff and retry).  Returns a :class:`ResumeOutcome`;
        never raises.
        """
        cfg = self.config
        peer = self.peer
        tracer = peer.network.tracer
        sizes = tuple(split_even(total_bits, n_parts))
        entry = self.ledger.open(filename, total_bits, sizes, now=self.sim.now)
        out = ResumeOutcome(
            filename=filename,
            parts_total=n_parts,
            total_bits=total_bits,
            started_at=self.sim.now,
        )
        deadline = self.sim.now + cfg.petition_deadline_s
        failed: List[PeerId] = []
        peers: List[PeerId] = []
        attempt = 0
        while attempt < cfg.max_transfer_attempts:
            # Re-fetch the entry every attempt: a mid-delivery discard
            # (or discard + reopen) would otherwise leave this loop
            # reading a stale, detached entry while the transfer
            # service writes new proofs to the live one — the resume
            # would then re-send parts forever or skip unproven ones.
            try:
                entry = self.ledger.open(
                    filename, total_bits, sizes, now=self.sim.now
                )
            except RecoveryError as exc:
                # The entry was replaced with a different layout while
                # we were delivering; the recorded proofs no longer
                # describe our parts.  Classify, don't raise.
                out.reason = f"RecoveryError: {exc}"
                break
            remaining = entry.remaining()
            if not remaining:
                # Every part proven by earlier attempts.
                out.ok = True
                break

            # Deadline-bounded supervision: while our own host is down
            # the petition waits in a queue instead of failing.
            queued = False
            wait_started = self.sim.now
            while not peer.host.is_up:
                if not queued:
                    queued = True
                    tracer.record(
                        "petition-queued", self.sim.now,
                        peer=peer.name, filename=filename,
                    )
                if self.sim.now >= deadline:
                    break
                step = min(
                    cfg.supervision_poll_s, deadline - self.sim.now
                )
                yield step
            if queued:
                waited = self.sim.now - wait_started
                out.waited_s += waited
                self._m_wait.observe(waited)
            if self.sim.now >= deadline:
                out.reason = "deadline"
                tracer.record(
                    "petition-expired", self.sim.now,
                    peer=peer.name, filename=filename,
                )
                break

            attempt += 1
            adv = select(attempt, tuple(failed))
            if adv is None:
                if attempt < cfg.max_transfer_attempts:
                    yield min(
                        cfg.resume_backoff_s,
                        max(0.0, deadline - self.sim.now),
                    )
                out.reason = "no candidate"
                continue

            skipped = entry.n_parts - len(remaining)
            if skipped:
                recovered = entry.verified_bits
                out.resumes += 1
                out.parts_skipped = skipped
                out.recovered_bits = recovered
                self._m_resumes.inc()
                self._m_parts_skipped.inc(skipped)
                self._m_recovered_mbit.inc(recovered / 1e6)
                tracer.record(
                    "transfer-resume", self.sim.now,
                    peer=peer.name, filename=filename,
                    skipped=skipped, remaining=len(remaining),
                )
            handle = None
            try:
                out.attempts += 1
                handle = yield self.sim.process(
                    peer.transfers.open_transfer(
                        adv,
                        filename,
                        sum(size for _, size in remaining),
                        n_parts_hint=len(remaining),
                    )
                )
                peers.append(adv.peer_id)
                for index, size in remaining:
                    yield self.sim.process(
                        handle.send_part(size, index=index)
                    )
                    out.parts_sent += 1
                out.outcomes.append(handle.close())
                out.ok = True
                out.reason = ""
                break
            except (TransferAborted, HostDownError, RequestTimeout) as exc:
                if handle is not None:
                    # Keep the partial attempt's record: its confirmed
                    # parts are exactly the ledger's new proofs.
                    out.outcomes.append(handle.outcome)
                if adv.peer_id not in failed:
                    failed.append(adv.peer_id)
                out.reason = f"{type(exc).__name__}: {exc}"
                tracer.record(
                    "transfer-interrupted", self.sim.now,
                    peer=peer.name, filename=filename,
                    dst=adv.name, error=type(exc).__name__,
                )
                if attempt < cfg.max_transfer_attempts:
                    yield min(
                        cfg.resume_backoff_s,
                        max(0.0, deadline - self.sim.now),
                    )
        else:
            if not out.reason:
                out.reason = "attempts exhausted"

        out.finished_at = self.sim.now
        out.peers = tuple(peers)
        if out.ok:
            if out.resumes or out.waited_s > 0.0:
                self._m_recovered.inc()
        else:
            self._m_expired.inc()
        return out
