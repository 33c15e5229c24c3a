"""The checked-in metric catalog: every instrument name the system publishes.

Dashboards, CI smoke checks (``.github/workflows/ci.yml`` asserts on
``fault.*`` / ``recovery.*`` / ``swarm.*`` counters by name) and
cross-run metric diffs all key on instrument names.  This module is
the single declared source of truth for that namespace, and the
registry enforces it: ``MetricsRegistry.counter/gauge/histogram`` (and
the no-op ``NullRegistry``) in :mod:`repro.obs.metrics` raise
``ValueError`` for a name missing here or asked for as another kind.
``tests/obs/test_declarations.py`` fails on an entry no ``src/repro``
module uses.

Keep the tuple sorted by name within each owner block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MetricSpec", "METRICS", "METRIC_CATALOG"]


@dataclass(frozen=True)
class MetricSpec:
    """One declared instrument."""

    name: str
    #: ``counter`` | ``gauge`` | ``histogram``.
    kind: str
    #: Owning subsystem (the name's dotted prefix, by convention).
    owner: str
    description: str


METRICS: Tuple[MetricSpec, ...] = (
    # -- broker control plane ------------------------------------------------
    MetricSpec("broker.discovery_queries", "counter", "overlay", "discovery lookups answered"),
    MetricSpec("broker.joins", "counter", "overlay", "peer join registrations"),
    MetricSpec("broker.keepalives", "counter", "overlay", "keepalive messages processed"),
    MetricSpec("broker.registry_size", "gauge", "overlay", "live peers in the registry"),
    MetricSpec("broker.stat_reports", "counter", "overlay", "peer stat reports ingested"),
    MetricSpec("broker.state_syncs", "counter", "overlay", "standby replication syncs"),
    # -- experiment runner ---------------------------------------------------
    MetricSpec("experiment.rep_sim_time_s", "histogram", "experiments", "simulated seconds per repetition"),
    MetricSpec("experiment.repetitions", "counter", "experiments", "repetitions completed"),
    # -- fault injection -----------------------------------------------------
    MetricSpec("fault.active", "gauge", "faults", "fault episodes currently applied"),
    MetricSpec("fault.episodes", "counter", "faults", "fault episodes applied"),
    MetricSpec("fault.recovery_s", "histogram", "faults", "episode apply-to-revert duration"),
    # -- gossip federation ---------------------------------------------------
    MetricSpec("gossip.deaths", "counter", "gossip", "members declared dead"),
    MetricSpec("gossip.false_suspects", "counter", "gossip", "suspicions refuted by the member"),
    MetricSpec("gossip.fanout_queries", "counter", "gossip", "cross-shard discovery legs issued"),
    MetricSpec("gossip.join_redirects", "counter", "gossip", "wrong-shard joins redirected"),
    MetricSpec("gossip.members", "gauge", "gossip", "members tracked by an agent"),
    MetricSpec("gossip.notifies", "counter", "gossip", "event-driven rumor pushes to the shard broker"),
    MetricSpec("gossip.ping_reqs", "counter", "gossip", "indirect probes requested through proxies"),
    MetricSpec("gossip.probes", "counter", "gossip", "direct SWIM probe rounds started"),
    MetricSpec("gossip.refutations", "counter", "gossip", "self-refutations issued (incarnation bumps)"),
    MetricSpec("gossip.rumors_sent", "counter", "gossip", "rumors piggybacked onto gossip traffic"),
    MetricSpec("gossip.shard_handoffs", "counter", "gossip", "shards adopted from a dead broker"),
    MetricSpec("gossip.shard_map_version", "gauge", "gossip", "shard map version a broker believes"),
    MetricSpec("gossip.stale_shard_retries", "counter", "gossip", "joins retried after a stale-map redirect"),
    MetricSpec("gossip.suppressed_promotions", "counter", "gossip", "standby promotions vetoed by gossip liveness"),
    MetricSpec("gossip.suspects", "counter", "gossip", "members placed under suspicion"),
    # -- access-link flow scheduler ------------------------------------------
    MetricSpec("flow.active", "gauge", "simnet", "flows currently scheduled"),
    MetricSpec("flow.finished", "counter", "simnet", "flows completed"),
    MetricSpec("flow.goodput_mbps", "histogram", "simnet", "per-flow goodput at completion"),
    MetricSpec("flow.reconciles", "counter", "simnet", "fair-share reconcile passes"),
    MetricSpec("flow.started", "counter", "simnet", "flows admitted"),
    MetricSpec("flow.touched_per_reconcile", "histogram", "simnet", "flows re-rated per reconcile"),
    MetricSpec("flow.zero_rate_windows", "counter", "simnet", "windows with every active flow at rate zero"),
    # -- simulation kernel ---------------------------------------------------
    MetricSpec("kernel.agenda_compactions", "gauge", "simnet", "tombstone compaction passes"),
    MetricSpec("kernel.agenda_depth", "gauge", "simnet", "agenda heap depth after a run"),
    MetricSpec("kernel.events_cancelled", "counter", "simnet", "events cancelled before firing"),
    MetricSpec("kernel.events_processed", "counter", "simnet", "events popped and fired"),
    MetricSpec("kernel.sim_time_s", "gauge", "simnet", "final simulated time of the run"),
    # -- message transport ---------------------------------------------------
    MetricSpec("net.message_latency_s", "histogram", "simnet", "per-message delivery latency"),
    MetricSpec("net.messages_lost", "counter", "simnet", "messages dropped by loss/faults"),
    MetricSpec("net.messages_sent", "counter", "simnet", "messages handed to the transport"),
    MetricSpec("net.retransmissions", "counter", "simnet", "retransmission attempts"),
    MetricSpec("net.transfer_attempts", "histogram", "simnet", "attempts per completed transfer"),
    # -- overlay file transfer ----------------------------------------------
    MetricSpec("overlay.discovery_attempts", "counter", "overlay", "discovery queries issued by peers"),
    MetricSpec("overlay.discovery_failures", "counter", "overlay", "discovery queries that timed out"),
    MetricSpec("overlay.discovery_latency_s", "histogram", "overlay", "client-observed discovery latency"),
    MetricSpec("overlay.part_attempts", "histogram", "overlay", "send attempts per part"),
    MetricSpec("overlay.part_bulk_s", "histogram", "overlay", "bulk-phase duration per part"),
    MetricSpec("overlay.part_transfer_s", "histogram", "overlay", "total duration per part"),
    MetricSpec("overlay.parts_sent", "counter", "overlay", "file parts fully sent"),
    MetricSpec("overlay.petition_attempts", "counter", "overlay", "petition attempts issued"),
    MetricSpec("overlay.petition_latency_s", "histogram", "overlay", "petition round-trip latency"),
    MetricSpec("overlay.transfer_total_s", "histogram", "overlay", "whole-file transfer duration"),
    MetricSpec("overlay.transfers_cancelled", "counter", "overlay", "transfers cancelled mid-flight"),
    MetricSpec("overlay.transfers_ok", "counter", "overlay", "transfers completed"),
    # -- peer runtime --------------------------------------------------------
    MetricSpec("peer.pending_tasks", "histogram", "overlay", "queued tasks sampled per poll"),
    MetricSpec("peer.pending_transfers", "histogram", "overlay", "in-flight transfers sampled per poll"),
    MetricSpec("peer.request_timeouts", "counter", "overlay", "peer requests that timed out"),
    # -- recovery stack ------------------------------------------------------
    MetricSpec("recovery.failover_latency_s", "histogram", "recovery", "outage-to-promotion latency"),
    MetricSpec("recovery.failovers", "counter", "recovery", "standby promotions"),
    MetricSpec("recovery.parts_skipped", "counter", "recovery", "parts proven before a delivery's latest resume, once per delivery"),
    MetricSpec("recovery.recovered_mbit", "counter", "recovery", "megabits proven before a delivery's latest resume (not re-sent), once per delivery"),
    MetricSpec("recovery.resumes", "counter", "recovery", "transfers resumed from checkpoint"),
    MetricSpec("recovery.supervision_wait_s", "histogram", "recovery", "leg wait for the fixed end's host"),
    MetricSpec("recovery.transfers_recovered", "counter", "recovery", "interrupted transfers completed after resume"),
    # -- degraded-mode selection ---------------------------------------------
    MetricSpec("selection.degraded", "counter", "recovery", "selections served from stale snapshots"),
    # -- supervised delivery (swarm downloads, resumable sends) --------------
    MetricSpec("swarm.completion_s", "histogram", "swarm", "multi-source download duration"),
    MetricSpec("swarm.downloads_failed", "counter", "swarm", "supervised deliveries that failed"),
    MetricSpec("swarm.downloads_ok", "counter", "swarm", "supervised deliveries completed"),
    MetricSpec("swarm.duplicate_parts", "counter", "swarm", "endgame duplicate pieces received"),
    MetricSpec("swarm.parts_proven", "counter", "swarm", "pieces proven end-to-end, one per part"),
    MetricSpec("swarm.reassignments", "counter", "swarm", "failed sources replaced mid-download"),
    MetricSpec("swarm.sources_active", "gauge", "swarm", "sources currently streaming"),
)

#: name -> spec, the lookup tables runtime checks use.
METRIC_CATALOG: Dict[str, MetricSpec] = {spec.name: spec for spec in METRICS}
