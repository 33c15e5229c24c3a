"""Part-level transfer checkpointing.

The :class:`TransferLedger` is the durable record of which parts of a
file have been transmitted *and verified end-to-end* (the receiver
echoed the part's integrity digest).  Its only writer is the
supervised delivery driver,
:class:`~repro.swarm.coordinator.SwarmCoordinator`: after a crash,
restart or loss burst kills a leg, the driver streams only the
unproven parts over a replacement leg — possibly a different peer
chosen by the active selection model — instead of restarting the file.

The ledger is keyed by filename, not transfer id: each leg mints a
fresh transfer id (and may target a fresh peer), but the legs continue
the same logical file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RecoveryError
from repro.overlay.filetransfer import part_digest
from repro.overlay.ids import PeerId

__all__ = ["PartProof", "LedgerEntry", "TransferLedger"]


@dataclass(frozen=True)
class PartProof:
    """One verified part: what was sent, to whom, and its digest."""

    index: int
    size_bits: float
    digest: str
    dst: Optional[PeerId]
    confirmed_at: float


@dataclass
class LedgerEntry:
    """Checkpoint state for one logical file."""

    filename: str
    total_bits: float
    part_sizes: Tuple[float, ...]
    opened_at: float
    #: Verified parts by index (insertion-ordered).
    proofs: Dict[int, PartProof] = field(default_factory=dict)

    @property
    def n_parts(self) -> int:
        """Total parts in the file's layout."""
        return len(self.part_sizes)

    @property
    def is_complete(self) -> bool:
        """Every part verified."""
        return len(self.proofs) >= self.n_parts

    @property
    def verified_bits(self) -> float:
        """Bits a resume does not need to re-stream."""
        return sum(p.size_bits for p in self.proofs.values())

    def verified_indices(self) -> Tuple[int, ...]:
        """Indices of verified parts, ascending."""
        return tuple(sorted(self.proofs))

    def remaining(self) -> List[Tuple[int, float]]:
        """``(index, size_bits)`` of parts still to send, in order."""
        return [
            (i, size)
            for i, size in enumerate(self.part_sizes)
            if i not in self.proofs
        ]


class TransferLedger:
    """Checkpoint store for a sender's outbound files."""

    def __init__(self) -> None:
        self._entries: Dict[str, LedgerEntry] = {}

    def __contains__(self, filename: str) -> bool:
        return filename in self._entries

    def open(
        self,
        filename: str,
        total_bits: float,
        part_sizes: Sequence[float],
        now: float,
    ) -> LedgerEntry:
        """Start (or rejoin) checkpointing for ``filename``.

        Reopening is idempotent as long as the layout matches; a
        conflicting layout raises :class:`RecoveryError` — a resumed
        file must keep its part structure or the recorded proofs are
        meaningless.
        """
        sizes = tuple(float(s) for s in part_sizes)
        existing = self._entries.get(filename)
        if existing is not None:
            if existing.total_bits != total_bits or existing.part_sizes != sizes:
                raise RecoveryError(
                    f"ledger entry for {filename!r} has a different layout"
                )
            return existing
        entry = LedgerEntry(
            filename=filename,
            total_bits=float(total_bits),
            part_sizes=sizes,
            opened_at=now,
        )
        self._entries[filename] = entry
        return entry

    def record_confirmed(
        self,
        filename: str,
        index: int,
        size_bits: float,
        digest: str,
        dst: Optional[PeerId] = None,
        now: float = 0.0,
    ) -> None:
        """Checkpoint a verified part.

        Silently ignores files the ledger is not tracking (the transfer
        service calls this for every confirmed part, checkpointed or
        not).  Validates the part against the recorded layout and the
        digest against the expected one; a duplicate confirm with the
        same digest is a no-op.
        """
        entry = self._entries.get(filename)
        if entry is None:
            return
        if not 0 <= index < entry.n_parts:
            raise RecoveryError(
                f"{filename!r}: part index {index} outside layout "
                f"of {entry.n_parts} parts"
            )
        if entry.part_sizes[index] != size_bits:
            raise RecoveryError(
                f"{filename!r}: part {index} size {size_bits} != "
                f"recorded {entry.part_sizes[index]}"
            )
        expected = part_digest(filename, index, size_bits)
        if digest != expected:
            raise RecoveryError(
                f"{filename!r}: part {index} digest mismatch"
            )
        prior = entry.proofs.get(index)
        if prior is not None:
            if prior.digest != digest:
                raise RecoveryError(
                    f"{filename!r}: conflicting proofs for part {index}"
                )
            return
        entry.proofs[index] = PartProof(
            index=index,
            size_bits=size_bits,
            digest=digest,
            dst=dst,
            confirmed_at=now,
        )

    def truncate(self, filename: str, keep_parts: int) -> Tuple[int, ...]:
        """Drop proofs at index >= ``keep_parts`` (a durable store that
        lost its tail).  The layout is preserved — only proofs go, so a
        resume re-sends exactly the dropped parts.  Returns the dropped
        indices, ascending; unknown files drop nothing.
        """
        if keep_parts < 0:
            raise RecoveryError(
                f"keep_parts must be >= 0, got {keep_parts}"
            )
        entry = self._entries.get(filename)
        if entry is None:
            return ()
        dropped = tuple(
            i for i in sorted(entry.proofs) if i >= keep_parts
        )
        for i in dropped:
            del entry.proofs[i]
        return dropped

    def entry(self, filename: str) -> LedgerEntry:
        """The entry for ``filename`` (raises if never opened)."""
        try:
            return self._entries[filename]
        except KeyError:
            raise RecoveryError(f"no ledger entry for {filename!r}") from None

    def get(self, filename: str) -> Optional[LedgerEntry]:
        """The entry for ``filename``, or None."""
        return self._entries.get(filename)

    def discard(self, filename: str) -> None:
        """Forget a file's checkpoints (e.g. after delivery)."""
        self._entries.pop(filename, None)
