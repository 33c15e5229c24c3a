"""Typed overlay messages.

Every control message exchanged by the overlay is a small frozen
dataclass; the transport delivers them as
:class:`~repro.simnet.transport.Datagram` payloads and peers dispatch
on the payload type.  Field conventions:

* times are simulator seconds,
* sizes are bits,
* every request carries the ids needed to correlate the reply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.overlay.ids import PeerId, TaskId, TransferId

__all__ = [
    "JoinRequest",
    "JoinAck",
    "Ping",
    "Pong",
    "KeepAlive",
    "StatReport",
    "DigestEntry",
    "StateSync",
    "DiscoveryQuery",
    "DiscoveryResponse",
    "PublishAdvertisement",
    "FileRequest",
    "FileRequestAck",
    "FilePetition",
    "PetitionAck",
    "PartNotice",
    "PartConfirm",
    "TransferCancel",
    "TransferComplete",
    "TaskSubmit",
    "TaskAccept",
    "TaskReject",
    "TaskQuery",
    "TaskResult",
]


# --------------------------------------------------------------------------
# Broker membership & liveness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinRequest:
    """A peer asks a broker to admit it to the overlay."""

    peer_id: PeerId
    name: str
    hostname: str
    cpu_speed: float
    kind: str


@dataclass(frozen=True)
class JoinAck:
    """Broker admits the peer and announces its own identity.

    In a federation, a broker refusing a wrong-shard join sets
    ``redirect_hostname`` to the shard's owner and ``shard_map`` to its
    own (fresher) map's wire triple, so a client with a stale map can
    retry against the right broker (the stale-shard-map retry path).
    """

    broker_id: PeerId
    accepted: bool
    reason: str = ""
    redirect_hostname: str = ""
    #: ``ShardMap.to_wire()`` triple, or ``None`` outside federations.
    shard_map: Any = None


@dataclass(frozen=True)
class Ping:
    """Liveness probe (expects a :class:`Pong`)."""

    sender: PeerId
    nonce: int = 0


@dataclass(frozen=True)
class Pong:
    """Reply to a :class:`Ping`."""

    nonce: int = 0


@dataclass(frozen=True)
class KeepAlive:
    """Periodic liveness beacon from peer to broker."""

    peer_id: PeerId
    #: Queue occupancies piggybacked for the broker's statistics.
    outbox_len: int = 0
    inbox_len: int = 0
    pending_tasks: int = 0
    pending_transfers: int = 0


@dataclass(frozen=True)
class DigestEntry:
    """One peer's registry summary inside a :class:`StateSync`."""

    peer_id: PeerId
    name: str
    hostname: str
    cpu_speed: float
    kind: str
    online: bool
    pending_tasks: int = 0
    pending_transfers: int = 0
    snapshot: Mapping[str, float] = field(default_factory=dict)
    #: How stale the sender's view of this peer was when the sync was
    #: built (``sender_now - last_seen``), so the receiver can merge by
    #: recency instead of arrival order.
    seen_ago_s: float = 0.0


@dataclass(frozen=True)
class StateSync:
    """Broker state replication for failover (primary <-> standby).

    Besides the registry entries it carries the discovery index, so a
    promoted standby can answer discovery queries without a warm-up
    round.  Entries merge by
    recency (via :attr:`DigestEntry.seen_ago_s`), which makes
    replication safe in both directions between a live pair.
    """

    broker_id: PeerId
    entries: Tuple["DigestEntry", ...] = ()
    #: Discovery index content as ``(kind, advertisement)`` pairs.
    advertisements: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class StatReport:
    """Peer-pushed statistics snapshot (see §2.2 of the paper).

    ``counters`` is a flat name->value mapping produced by
    :meth:`repro.overlay.statistics.PeerStats.snapshot`, so its keys
    are always ``statistics.SNAPSHOT_KEYS``; the broker stamps their
    freshness as one set.
    """

    peer_id: PeerId
    counters: Mapping[str, float]


# --------------------------------------------------------------------------
# Discovery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoveryQuery:
    """Ask the broker for advertisements.

    ``adv_kind`` in {"peer", "resource"}; ``attrs``
    are equality filters on advertisement fields.
    """

    requester: PeerId
    adv_kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    query_id: int = 0
    #: True on a broker-to-broker leg of a federated fan-out; the
    #: answering broker must resolve locally only (no recursion).
    fanout: bool = False


@dataclass(frozen=True)
class DiscoveryResponse:
    """Broker's answer: the matching advertisements."""

    query_id: int
    advertisements: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class PublishAdvertisement:
    """Push an advertisement into the broker's discovery index."""

    publisher: PeerId
    adv: Any


# --------------------------------------------------------------------------
# File sharing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FileRequest:
    """Ask a provider peer to transmit one of its shared files."""

    requester: PeerId
    requester_hostname: str
    filename: str
    n_parts: int = 4


@dataclass(frozen=True)
class FileRequestAck:
    """Provider's answer: will it send the file?"""

    filename: str
    accepted: bool
    reason: str = ""
    size_bits: float = 0.0


# --------------------------------------------------------------------------
# File transfer protocol (the measured workload)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FilePetition:
    """Sender's request to start transmitting a file (or one file part).

    This is the message whose reception time Figure 2 measures.
    """

    transfer_id: TransferId
    sender: PeerId
    filename: str
    total_bits: float
    n_parts: int
    #: Part indices of the *whole logical file* still owed when this
    #: stream is one of several delivering it (a swarm download or a
    #: resumed send): the receiver treats the file as arrived once it
    #: has confirmed every one of them across all its streams.  Parts
    #: proven before the stream opened are left out, so a stream that
    #: carries only the unproven parts still completes the file.
    #: Empty = single-stream transfer.
    file_parts: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PetitionAck:
    """Receiver confirms it is ready to receive.

    ``received_at`` is the receiver's timestamp of petition delivery;
    in the simulator clocks are global, so sender-side latency
    accounting is exact.
    """

    transfer_id: TransferId
    accepted: bool
    received_at: float = 0.0


@dataclass(frozen=True)
class PartNotice:
    """Sender announces that part ``index`` is being streamed."""

    transfer_id: TransferId
    index: int
    size_bits: float
    #: Integrity digest of the part (see
    #: :func:`repro.overlay.filetransfer.part_digest`); "" = unchecked.
    digest: str = ""


@dataclass(frozen=True)
class PartConfirm:
    """Receiver confirms correct reception of part ``index`` and its
    availability to receive another part (quoting the paper's
    protocol)."""

    transfer_id: TransferId
    index: int
    ok: bool = True
    received_at: float = 0.0
    #: Receiver-computed integrity digest, echoed back so the sender
    #: can verify before checkpointing the part; "" = unchecked.
    digest: str = ""


@dataclass(frozen=True)
class TransferCancel:
    """Either side aborts the transfer."""

    transfer_id: TransferId
    reason: str = ""


@dataclass(frozen=True)
class TransferComplete:
    """Sender announces an open-ended transfer is finished."""

    transfer_id: TransferId
    n_parts_sent: int = 0


# --------------------------------------------------------------------------
# Task execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSubmit:
    """Submit an executable task to a peer.

    ``ops`` is the normalized CPU demand; ``input_bits`` is the size of
    the input file that must be transferred first (0 for none).
    """

    task_id: TaskId
    submitter: PeerId
    name: str
    ops: float
    input_bits: float = 0.0


@dataclass(frozen=True)
class TaskAccept:
    """Peer agrees to execute the task."""

    task_id: TaskId


@dataclass(frozen=True)
class TaskReject:
    """Peer declines the task (busy, policy, ...)."""

    task_id: TaskId
    reason: str = ""


@dataclass(frozen=True)
class TaskQuery:
    """Submitter asks again for an overdue result; the executor resends
    it if the task has finished."""

    task_id: TaskId


@dataclass(frozen=True)
class TaskResult:
    """Execution outcome returned to the submitter."""

    task_id: TaskId
    ok: bool
    busy_seconds: float = 0.0
    output: Optional[Any] = None
    error: str = ""
