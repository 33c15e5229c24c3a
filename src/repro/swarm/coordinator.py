"""Supervised part delivery: one file, its parts streamed over k legs.

A :class:`SwarmCoordinator` delivers one file's parts between a *fixed
end* the caller names and up to *k* peers that a selection callback
picks for the other end.  Each leg is one petitioned
:meth:`~repro.overlay.filetransfer.FileTransferService.open_transfer`
stream fed by
:meth:`~repro.overlay.filetransfer.TransferHandle.send_part`.  The
sending end is always a :class:`~repro.overlay.peer.PeerNode` (it
acts) and the receiving end an advertisement (it is addressed), so the
fixed end's type sets the direction:

* **download** — the fixed end is the destination's advertisement and
  every leg is a source node with the pieces it holds: the BitTorrent
  generalization of the paper's part-granularity result;
* **resumable send** — the fixed end is the sending node and every leg
  a receiver's advertisement.  At k=1 this is checkpoint/resume: a
  failed receiver is replaced at once, and its replacement streams
  only the unproven parts.

* Piece ordering is rarest-first with a seeded tie-break
  (:class:`~repro.swarm.pieces.PieceTracker`).
* Concurrency is bounded by choke/unchoke slots ranked on observed
  part throughput (:class:`~repro.swarm.choke.ChokeManager`); choking
  applies at piece boundaries, never mid-stream.  A k=1 delivery has
  one leg at a time, so it builds no slots, no wake event and no leg
  process: ``download`` runs the leg itself.
* The last pieces enter *endgame*: bounded duplicate requests race the
  stragglers, and a duplicate whose piece is proven mid-stream skips
  its confirm round (``cancel_if`` on
  :meth:`~repro.overlay.filetransfer.TransferHandle.send_part`); a
  duplicate confirm that does land finds its piece already proven in
  the tracker and counts as a redundant round, never a second proof.
* The delivery's tracker is its only record of proven parts, so a
  crashed or choked-out leg never loses verified work: its in-flight
  piece returns to the pool and is re-assigned to the survivors, plus
  a replacement leg from the selection callback, which streams only
  the unproven parts.
* While the fixed end's host is down, legs wait (polling every
  :data:`FIXED_END_POLL_S`) instead of failing and burning through
  candidates; the caller bounds the wait with :meth:`abort`.

``download`` never raises — it always returns a
:class:`SwarmOutcome` so experiment accounting can classify every
offered delivery without exception plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import HostDownError, TransferAborted
from repro.obs.metrics import NULL_REGISTRY
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.filetransfer import OPEN_ENDED, split_even
from repro.overlay.peer import PeerNode, RequestTimeout
from repro.simnet.transport import Network
from repro.swarm.choke import UNCHOKE_SLOTS, ChokeManager
from repro.swarm.pieces import PieceTracker

__all__ = ["Leg", "PieceRequest", "SwarmOutcome", "SwarmCoordinator"]

#: Endgame: maximum concurrent fetchers per unproven piece.
ENDGAME_DUPLICATES = 2

#: Poll period while a leg waits out the fixed end's outage.
FIXED_END_POLL_S = 5.0

#: Completion-time histogram bounds (seconds).
_COMPLETION_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0)

#: Fixed-end wait histogram bounds (seconds).
_WAIT_BUCKETS = (1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0)


@dataclass(frozen=True)
class Leg:
    """One candidate for the chosen end: a source node of a download
    (with the pieces it holds) or a receiver's advertisement of a
    resumable send."""

    peer: Union[PeerNode, PeerAdvertisement]
    #: Part indices this leg can serve (None = the whole file).
    pieces: Optional[Tuple[int, ...]] = None

    @property
    def name(self) -> str:
        return self.peer.name


@dataclass(frozen=True)
class PieceRequest:
    """One piece assignment, as issued (including endgame duplicates)."""

    piece: int
    source: str
    duplicate: bool
    at: float


#: Selection callback: ``(needed, exclude_names) -> legs``.  Called
#: once at the start with ``needed = k`` and again (``needed = 1``)
#: after every leg failure; ``exclude_names`` names every leg already
#: used.
SelectLegsFn = Callable[[int, Tuple[str, ...]], Sequence[Leg]]


@dataclass
class SwarmOutcome:
    """Everything measured about one supervised delivery.  The
    ``source`` names (``sources_used``, ``requests``...) name legs:
    the receivers of a resumable send."""

    filename: str
    total_bits: float
    n_parts: int
    started_at: float = 0.0
    finished_at: float = 0.0
    ok: bool = False
    reason: str = ""
    #: Endgame requests issued for a piece already in flight.
    duplicate_requests: int = 0
    #: Duplicates whose confirm round was skipped (proof landed first).
    duplicates_cancelled: int = 0
    #: Duplicates that completed a redundant full round.
    duplicate_parts: int = 0
    #: Source failures whose in-flight piece returned to the pool.
    reassignments: int = 0
    #: Replacement legs opened over already-proven parts.
    resumes: int = 0
    #: Proven bits at the latest resume: work not re-sent.
    recovered_bits: float = 0.0
    #: Time legs spent waiting for the fixed end's host to come back.
    waited_s: float = 0.0
    #: Peak concurrently-streaming sources.
    max_active: int = 0
    sources_used: List[str] = field(default_factory=list)
    sources_failed: List[str] = field(default_factory=list)
    requests: List[PieceRequest] = field(default_factory=list)
    #: ``(piece, proven_at)`` in proof order.
    proofs: List[Tuple[int, float]] = field(default_factory=list)
    first_part_at: float = math.nan

    @property
    def completion_s(self) -> float:
        """Download start (petitions included) to final proof."""
        return self.finished_at - self.started_at

    @property
    def transmission_s(self) -> float:
        """Pure data phase: first part start to final proof — the
        quantity the legacy path calls ``transmission_time``."""
        if math.isnan(self.first_part_at):
            return 0.0
        return self.finished_at - self.first_part_at

    @property
    def last_piece_tail_s(self) -> float:
        """Time the download spent on its final piece after every
        other piece was proven (the swarming analogue of the paper's
        last-Mb measurement)."""
        if len(self.proofs) < 2:
            return self.transmission_s
        return self.proofs[-1][1] - self.proofs[-2][1]


class SwarmCoordinator:
    """Drives one supervised delivery of one file.

    ``fixed`` is the end the caller names: the destination's
    advertisement for a download, the sending node for a resumable
    send.
    """

    def __init__(
        self,
        network: Network,
        fixed: Union[PeerAdvertisement, PeerNode],
        filename: str,
        total_bits: float,
        n_parts: int,
        select: SelectLegsFn,
        k: int = 2,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.network = network
        self.sim = network.sim
        self.fixed = fixed
        #: True when the fixed end sends and the legs receive.
        self._fixed_sends = isinstance(fixed, PeerNode)
        self._fixed_host = (
            fixed.host if self._fixed_sends else network.host(fixed.hostname)
        )
        self.filename = filename
        self.total_bits = float(total_bits)
        self.n_parts = int(n_parts)
        self.select = select
        self.k = k
        reg = network.metrics
        self._g_active = reg.gauge("swarm.sources_active")
        self._m_duplicates = reg.counter("swarm.duplicate_parts")
        self._m_reassign = reg.counter("swarm.reassignments")
        self._m_proven = reg.counter("swarm.parts_proven")
        self._m_ok = reg.counter("swarm.downloads_ok")
        self._m_failed = reg.counter("swarm.downloads_failed")
        self._m_completion = reg.histogram(
            "swarm.completion_s", bounds=_COMPLETION_BUCKETS
        )
        # The recovery stack's resume instruments count resumable sends
        # only, so a run without it exports no ``recovery.*`` name.
        rec = reg if self._fixed_sends else NULL_REGISTRY
        self._m_resumes = rec.counter("recovery.resumes")
        self._m_parts_skipped = rec.counter("recovery.parts_skipped")
        self._m_recovered_mbit = rec.counter("recovery.recovered_mbit")
        self._m_recovered = rec.counter("recovery.transfers_recovered")
        self._m_wait = rec.histogram(
            "recovery.supervision_wait_s", bounds=_WAIT_BUCKETS
        )
        self.outcome = SwarmOutcome(
            filename=filename, total_bits=self.total_bits, n_parts=self.n_parts
        )
        self._tracker: Optional[PieceTracker] = None
        self._used: Dict[str, None] = {}
        self._streaming = 0
        self._idle = 0
        self._alive = 0
        #: Parts proven at the latest resume (see :meth:`_resume`).
        self._skipped = 0
        self._finished = False
        self._settled = False
        # Legs run as processes only at k > 1; a k=1 ``download`` runs
        # each admitted leg itself, the next one parked here.
        self._choke: Optional[ChokeManager] = None
        self._wake = self._done = None
        self._next_leg: Optional[Leg] = None
        if k > 1:
            self._choke = ChokeManager()
            self._wake = self.sim.event(name=f"swarm-wake({filename})")
            self._done = self.sim.event(name=f"swarm-done({filename})")

    # -- driver --------------------------------------------------------------

    @property
    def settled(self) -> bool:
        """Is the outcome final?  True once ``download`` has returned,
        and as soon as :meth:`abort` cuts a k=1 delivery, whose leg
        runs inside ``download`` and drains its part before returning."""
        return self._settled

    def download(self):
        """Generator: deliver the file over up to k legs.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` to race it against a deadline.  Returns the
        :class:`SwarmOutcome`; never raises.
        """
        sim = self.sim
        out = self.outcome
        out.started_at = sim.now
        rng = self.network.streams.get(f"swarm/{self.filename}")
        self._tracker = PieceTracker(
            split_even(self.total_bits, self.n_parts),
            rng.random(self.n_parts),
        )
        self.network.tracer.record(
            "swarm-open", sim.now,
            filename=self.filename, fixed=self.fixed.name,
            parts=self.n_parts, k=self.k,
        )
        if not self._fixed_host.is_up:
            # Select once the fixed end is back, on fresh candidates.
            yield from self._fixed_end_wait()
        initial = ()
        if not self._finished:
            initial = tuple(self.select(self.k, ()))[: self.k]
        if not initial:
            if not out.reason:
                out.reason = "no candidates"
            out.finished_at = sim.now
            self._settled = True
            self._m_failed.inc()
            return out
        for leg in initial:
            if leg.name not in self._used:
                self._admit(leg)
        if self._choke is None:
            yield from sim.call(self._legs())
        else:
            # The first source the selection callback names is the
            # origin copy: it keeps a streaming slot for the whole
            # download (observed-rate ranking cannot tell a capable
            # origin from a replica once equal shares cap them both).
            self._choke.pin(initial[0].name)
            yield self._done
        return self._settle()

    def _legs(self):
        """k=1: run the admitted leg, then each replacement a failure
        admits, each starting where its own process would have."""
        leg = self._next_leg
        while leg is not None:
            self._next_leg = None
            yield from self._worker(leg)
            leg = self._next_leg
            if leg is not None:
                gate = self.sim.start_gate()
                if gate is not None:
                    yield gate

    def _settle(self) -> SwarmOutcome:
        """Close the outcome's books once; returns the outcome."""
        out = self.outcome
        if self._settled:
            return out
        self._settled = True
        sim = self.sim
        out.finished_at = sim.now
        out.ok = self._tracker.complete
        if out.ok:
            self._m_ok.inc()
            self._m_completion.observe(out.completion_s)
            if out.resumes or out.waited_s > 0.0:
                self._m_recovered.inc()
        else:
            self._m_failed.inc()
        self.network.tracer.record(
            "swarm-done", sim.now,
            filename=self.filename, ok=out.ok,
            duplicates=out.duplicate_requests,
            reassignments=out.reassignments,
        )
        return out

    def abort(self, reason: str = "aborted") -> None:
        """Stop the delivery (deadline supervision hook).

        Parked and fixed-end-waiting workers exit at their next wake;
        streaming workers drain their current part first (bulk units
        cannot be recalled).  A k>1 ``download`` settles at once and
        returns; a k=1 one settles at once (see :attr:`settled`) and
        returns once its leg has drained.  Safe to call at any point,
        including after completion (then a no-op).
        """
        if self._finished:
            return
        if not self.outcome.reason:
            self.outcome.reason = reason
        self._finish()
        if self._choke is None and self._alive:
            # A k>1 ``download`` settles when ``_finish`` fires its
            # done event; a k=1 one is inside its leg, so settle here.
            self._settle()

    # -- leg lifecycle -------------------------------------------------------

    def _admit(self, leg: Leg) -> None:
        name = leg.name
        self._used[name] = None
        self.outcome.sources_used.append(name)
        self._tracker.add_source(name, leg.pieces)
        self._alive += 1
        if self._choke is None:
            self._next_leg = leg
            return
        self._choke.admit(name)
        self.sim.process(
            self._worker(leg), name=f"swarm-{self.filename}-{name}"
        )

    def _resume(self) -> None:
        """Count a replacement leg opening over already-proven parts.

        The skipped parts and recovered bits of a delivery count once,
        as of its latest resume: each resume adds only the parts and
        bits proven since the one before."""
        tracker = self._tracker
        skipped = tracker.proven_count
        if not skipped:
            return
        out = self.outcome
        recovered = tracker.proven_bits
        self._m_resumes.inc()
        self._m_parts_skipped.inc(skipped - self._skipped)
        self._m_recovered_mbit.inc((recovered - out.recovered_bits) / 1e6)
        self._skipped = skipped
        out.resumes += 1
        out.recovered_bits = recovered

    def _fixed_end_wait(self):
        """Poll until the fixed end's host is up or the delivery ends."""
        sim = self.sim
        started = sim.now
        self.network.tracer.record(
            "petition-queued", sim.now,
            peer=self.fixed.name, filename=self.filename,
        )
        while not self._fixed_host.is_up and not self._finished:
            yield FIXED_END_POLL_S
        waited = sim.now - started
        self.outcome.waited_s += waited
        self._m_wait.observe(waited)

    def _worker(self, leg: Leg):
        sim = self.sim
        out = self.outcome
        tracker = self._tracker
        choke = self._choke
        name = leg.name
        if self._fixed_sends:
            sender, receiver = self.fixed, leg.peer
        else:
            sender, receiver = leg.peer, self.fixed
        handle = None
        current: Optional[int] = None
        # Set when garbage collection closes the worker after its
        # session ended: cleanup would then act in a dead session
        # (close the handle, count a transfer, reset gauges).
        abandoned = False
        try:
            try:
                while not self._finished and not tracker.complete:
                    if not self._fixed_host.is_up:
                        yield from self._fixed_end_wait()
                        continue
                    if choke is not None and (
                        not choke.unchoked(name)
                        or self._streaming >= UNCHOKE_SLOTS
                    ):
                        yield from self._idle_wait()
                        continue
                    piece = tracker.next_piece(name, ENDGAME_DUPLICATES)
                    if piece is None:
                        yield from self._idle_wait()
                        continue
                    duplicate = tracker.inflight(piece) > 0
                    tracker.begin(piece, name)
                    current = piece
                    size = tracker.part_sizes[piece]
                    out.requests.append(
                        PieceRequest(piece, name, duplicate, sim.now)
                    )
                    if duplicate:
                        out.duplicate_requests += 1
                    self._streaming += 1
                    self._g_active.set(self._streaming)
                    out.max_active = max(out.max_active, self._streaming)
                    try:
                        if handle is None:
                            handle = yield from sim.call(
                                sender.transfers.open_transfer(
                                    receiver,
                                    self.filename,
                                    self.total_bits,
                                    n_parts_hint=OPEN_ENDED,
                                    file_parts=tuple(
                                        i for i, _ in tracker.remaining()
                                    ),
                                )
                            )
                        if math.isnan(out.first_part_at):
                            out.first_part_at = sim.now
                        cancel_if = None
                        if duplicate:
                            # Endgame: drop the confirm round when the
                            # primary's proof lands mid-stream.
                            cancel_if = (
                                lambda p=piece: tracker.proven(p)
                            )
                        rec = yield from sim.call(
                            handle.send_part(
                                size, index=piece, cancel_if=cancel_if
                            )
                        )
                    except GeneratorExit:
                        abandoned = True
                        raise
                    finally:
                        if not abandoned:
                            self._streaming -= 1
                            self._g_active.set(self._streaming)
                    if rec is None:
                        # Cancelled duplicate: proven elsewhere while
                        # our copy streamed.
                        tracker.abandon(piece, name)
                        current = None
                        out.duplicates_cancelled += 1
                        self._m_duplicates.inc()
                        self.network.tracer.record(
                            "swarm-cancel", sim.now,
                            filename=self.filename, piece=piece, source=name,
                        )
                        self._kick()
                        continue
                    current = None
                    if tracker.mark_proven(piece):
                        # First proof wins; a later confirm of the same
                        # piece lands in the branch below.
                        out.proofs.append((piece, sim.now))
                        self._m_proven.inc()
                        if choke is not None:
                            choke.record(name, size, rec.total_seconds)
                            choke.on_proof()
                        self.network.tracer.record(
                            "swarm-piece", sim.now,
                            filename=self.filename, piece=piece,
                            source=name, duplicate=duplicate,
                        )
                        if tracker.complete:
                            self._finish()
                    else:
                        # Both duplicate streams confirmed before either
                        # proof landed — a redundant full round.
                        out.duplicate_parts += 1
                        self._m_duplicates.inc()
                    self._kick()
            except (TransferAborted, HostDownError, RequestTimeout) as exc:
                if current is not None:
                    tracker.abandon(current, name)
                if handle is not None and not handle.closed:
                    # send_part self-cancels on aborts; a confirm-round
                    # RequestTimeout leaves the handle open.
                    handle.cancel(f"swarm leg failed: {type(exc).__name__}")
                handle = None
                self._on_leg_failed(leg, current, exc)
                return
        except GeneratorExit:
            abandoned = True
            raise
        finally:
            if not abandoned:
                self._alive -= 1
                if handle is not None and not handle.closed:
                    handle.close()
                if self._alive == 0 and not self._finished:
                    if not self.outcome.reason:
                        self.outcome.reason = "all sources failed"
                    self._finish()
                self._kick()

    def _idle_wait(self):
        ev = self._wake
        self._idle += 1
        try:
            self._check_progress()
            # A k=1 leg idles only when it holds no piece left, and the
            # check above has then ended the delivery.
            if ev is not None:
                yield ev
        finally:
            self._idle -= 1

    def _kick(self) -> None:
        """Wake every parked worker (wake event is regenerated)."""
        old = self._wake
        if old is None:
            return
        self._wake = self.sim.event(name=f"swarm-wake({self.filename})")
        if not old.triggered:
            old.succeed()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._done is not None and not self._done.triggered:
            self._done.succeed()
        self._kick()

    def _check_progress(self) -> None:
        """Stall detection: every live worker parked, nothing on the
        wire.  Either some unchoked source can pick up a free piece at
        its next wake (leave it alone: the event that freed the piece
        already kicked its holders), or no free piece has a source that
        may stream it (fail rather than hang).  Every study's sources
        hold the whole file and the unchoked set is never empty while a
        source remains, so only partial holdings can leave a free
        piece's holders all choked."""
        if self._finished or self._streaming > 0 or self._idle < self._alive:
            return
        tracker = self._tracker
        choked = False
        for piece, _size in tracker.remaining():
            if tracker.inflight(piece):
                continue
            holders = tracker.holders(piece)
            if holders and (self._choke is None or any(
                self._choke.unchoked(h) for h in holders
            )):
                return
            choked = choked or bool(holders)
        self.outcome.reason = (
            "pieces unavailable: every holding source is choked" if choked
            else "pieces unavailable: every holding source failed"
        )
        self._finish()

    def _on_leg_failed(self, leg: Leg, piece, exc) -> None:
        sim = self.sim
        name = leg.name
        dropped = self._tracker.remove_source(name)
        if self._choke is not None:
            self._choke.drop(name)
        self.outcome.sources_failed.append(name)
        if piece is not None or dropped:
            self.outcome.reassignments += 1
            self._m_reassign.inc()
        self.network.tracer.record(
            "swarm-reassign", sim.now,
            filename=self.filename, source=name,
            error=type(exc).__name__,
            dropped=len(dropped) + (1 if piece is not None else 0),
        )
        if not self._finished and not self._tracker.complete:
            exclude = tuple(self._used)
            replacement = tuple(self.select(1, exclude))[:1]
            for repl in replacement:
                if repl.name not in self._used:
                    self._resume()
                    self._admit(repl)
        self._kick()
