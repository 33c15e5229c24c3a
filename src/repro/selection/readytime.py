"""Broker-side ready-time estimation.

The scheduling-based model plans allocations around each peer's *ready
time* — "the estimated time … computed by the broker peers based on
historical data kept for the peergroup" (paper §2.1).  The estimator
composes:

* the peer's **planned commitment** (``busy_until`` from prior
  reservations made by the economic scheduler),
* its **live queue backlog** (pending tasks/transfers from keepalives,
  each costed at the peer's historical service rate), and
* the workload's own **service estimate** (observed EWMA transfer
  goodput / execution rate, falling back to the node's advertised
  planning rates when no history exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.selection.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.broker import Broker, PeerRecord

__all__ = ["ReadyTimeEstimate", "ReadyTimeEstimator"]


@dataclass(frozen=True)
class ReadyTimeEstimate:
    """The estimator's answer for one candidate."""

    peer_name: str
    ready_at: float
    service_seconds: float

    @property
    def completion_at(self) -> float:
        """Estimated completion time of the planned workload."""
        return self.ready_at + self.service_seconds


class ReadyTimeEstimator:
    """Estimates ready and completion times from broker records."""

    #: Assumed CPU demand of one backlogged task when costing queues
    #: (normalized ops) — the broker has no per-task sizes for foreign
    #: submissions, so it prices them at a nominal unit.
    NOMINAL_QUEUED_TASK_OPS = 60.0
    #: Assumed size of one backlogged transfer (bits).
    NOMINAL_QUEUED_TRANSFER_BITS = 8.0e6

    def __init__(self, broker: "Broker") -> None:
        self.broker = broker

    def external_pending_transfers(self, record: "PeerRecord") -> int:
        """Foreign pending transfers at the peer.

        The peer's keepalive counts *all* inbound transfers — including
        ones this broker itself has open — so the broker's own open
        handles are discounted to avoid double-charging its own work.
        """
        own = self.broker.transfers.outgoing_open(record.adv.hostname)
        return max(0, record.pending_transfers - own)

    def is_idle(self, record: "PeerRecord", now: float) -> bool:
        """Idle from the planner's perspective (own handles excluded)."""
        return (
            record.pending_tasks == 0
            and self.external_pending_transfers(record) == 0
            and record.busy_until <= now
        )

    def backlog_seconds(self, record: "PeerRecord") -> float:
        """Cost of the peer's live queues at its historical rates."""
        total = 0.0
        if record.pending_tasks:
            total += record.pending_tasks * self.broker.estimate_exec_seconds(
                record, self.NOMINAL_QUEUED_TASK_OPS
            )
        foreign = self.external_pending_transfers(record)
        if foreign:
            total += foreign * self.broker.estimate_transfer_seconds(
                record, self.NOMINAL_QUEUED_TRANSFER_BITS
            )
        return total

    def estimate(
        self, record: "PeerRecord", workload: Workload, now: float
    ) -> ReadyTimeEstimate:
        """Ready time + service time for ``workload`` on this peer."""
        ready = record.ready_at(now) + self.backlog_seconds(record)
        service = 0.0
        if workload.transfer_bits > 0:
            service += self.broker.estimate_transfer_seconds(
                record, workload.transfer_bits
            )
        if workload.ops > 0:
            service += self.broker.estimate_exec_seconds(
                record, workload.ops
            )
        return ReadyTimeEstimate(
            peer_name=record.adv.name, ready_at=ready, service_seconds=service
        )
