"""Live network layer: hosts, datagrams and flow-level bulk transfers.

This module turns a static :class:`~repro.simnet.topology.Topology`
into running endpoints on a simulator:

* :class:`Network` — binds simulator + topology + random streams and
  owns the shared :class:`FlowScheduler`.
* :class:`Host` — one endpoint: control-message delivery (latency +
  per-node overhead + loss), bulk flows with fair bandwidth sharing,
  retransmitting reliable transfers, a CPU model for task execution,
  and crash/recover failure injection.
* :class:`FlowScheduler` — progress-based flow simulation with
  *incremental* fair-share accounting: a flow arrival/departure only
  advances and re-rates the flows that share an access link with the
  affected hosts (per-host flow sets); completions are driven by a
  lazily-invalidated completion-horizon heap, and a periodic tick
  resamples every flow so time-varying sliver contention is honoured.
  Rates are the min of equal shares at the sending and receiving
  access links.

Design notes
------------
Control messages model the overlay's small XML messages.  Their delay is

    one_way_path + receiver_overhead_sample

where the receiver overhead is the dominant, heavy-tailed term (this is
what Figure 2 of the paper measures, with petition-reception times from
0.04 s to 27 s on different PlanetLab slivers).

Bulk transfers are *units* in the sense of :mod:`repro.simnet.loss`:
loss is evaluated per unit on completion, and
:meth:`Host.reliable_transfer` retries whole units, charging a
detection timeout per failed attempt.  This is the loss-amplification
mechanism that reproduces Figure 5.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import (
    HostDownError,
    SimulationError,
    TransferAborted,
)
from repro.obs.metrics import DEFAULT_RATE_BUCKETS, MetricsRegistry
from repro.obs.runtime import active_registry
from repro.simnet.bandwidth import ContendedBandwidth, DiurnalBandwidth
from repro.simnet.kernel import Event, Resource, Simulator
from repro.simnet.latency import LognormalLatency, SpikyLatency
from repro.simnet.loss import NO_LOSS, PerUnitLoss
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import EventTrace

__all__ = [
    "Network",
    "Host",
    "Datagram",
    "Flow",
    "FlowScheduler",
    "TransferReport",
]

#: Progress below this many bits counts as "flow finished".
_EPSILON_BITS = 1e-6

#: Default size of a control message (bits) — a small XML document.
CONTROL_MESSAGE_BITS = 8.0 * 2048


@dataclass(slots=True)
class Datagram:
    """A control message in flight (or delivered)."""

    src: str
    dst: str
    payload: Any
    size_bits: float = CONTROL_MESSAGE_BITS
    sent_at: float = 0.0
    delivered_at: Optional[float] = None

    @property
    def latency(self) -> float:
        """Delivery latency, once delivered."""
        if self.delivered_at is None:
            raise SimulationError("datagram not delivered yet")
        return self.delivered_at - self.sent_at


@dataclass
class TransferReport:
    """Outcome of a reliable bulk transfer."""

    src: str
    dst: str
    size_bits: float
    started_at: float
    finished_at: float
    attempts: int
    wasted_bits: float

    @property
    def duration(self) -> float:
        """End-to-end seconds including retransmissions and timeouts."""
        return self.finished_at - self.started_at

    @property
    def goodput_bps(self) -> float:
        """Useful bits per second over the whole transfer."""
        if self.duration <= 0:
            return float("inf")
        return self.size_bits / self.duration


class Flow:
    """One active bulk flow inside the :class:`FlowScheduler`."""

    __slots__ = (
        "src", "dst", "remaining", "rate", "last_update", "done",
        "size_bits", "started_at", "seq", "ver",
    )

    def __init__(self, src: "Host", dst: "Host", size_bits: float, done: Event) -> None:
        self.src = src
        self.dst = dst
        self.size_bits = float(size_bits)
        self.remaining = float(size_bits)
        self.rate = 0.0
        self.last_update = 0.0
        self.started_at = 0.0
        self.done = done
        #: Monotone start-order number; the deterministic heap tiebreak.
        self.seq = 0
        #: Rate version; horizon-heap entries carrying an older version
        #: are stale and skipped on pop (lazy invalidation).
        self.ver = 0


#: Slack (seconds) when deciding whether a heap horizon is due; absorbs
#: the float dust of ``now + (t - now)`` round-tripping through the
#: agenda without ever re-arming a timer for the same instant.
_HORIZON_SLACK_S = 1e-9

#: Bucket bounds for the per-event touched-flow histogram.
_TOUCHED_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


class FlowScheduler:
    """Incremental progress-based fair-share scheduler for bulk flows.

    Rates: each flow gets ``min(up_cap(src)/n_up(src),
    down_cap(dst)/n_down(dst))`` where the capacities are sampled from
    the hosts' time-varying bandwidth models.

    Scheduling is *incremental*: a flow start or finish advances and
    re-rates only the flows sharing the sending host's uplink or the
    receiving host's downlink (the hosts' per-link flow sets) — the
    share formula depends only on per-link flow counts and the link's
    own capacity, so no other flow's rate can change.  Completions are
    driven by a min-heap of completion horizons whose entries are
    invalidated lazily via per-flow version numbers, and the single
    wake-up timer is superseded through the kernel's lazy
    :meth:`~repro.simnet.kernel.Simulator.cancel`.  A periodic tick
    (every ``tick`` seconds since the last scheduler event) still
    advances and re-rates *every* flow so long transfers feel
    time-varying sliver contention, exactly as the previous global
    reconcile did.

    Invariants (enforced by ``tests/simnet/test_flow_properties.py``):

    * a flow's progress plus its remaining bits equals its size;
    * remaining bits never go negative (beyond float dust);
    * the rates of the flows sharing one access link sum to at most
      that link's sampled capacity;
    * every started flow eventually completes once capacity returns.
    """

    def __init__(
        self,
        sim: Simulator,
        tick: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be > 0, got {tick}")
        self.sim = sim
        self.tick = float(tick)
        #: Active flows in start order (dict-as-ordered-set: iteration
        #: order is insertion order, which keeps runs deterministic).
        self._flows: Dict[Flow, None] = {}
        self._seq = 0
        #: Completion-horizon heap: ``(finish_time, seq, ver, flow)``.
        #: ``(seq, ver)`` is unique per entry, so comparisons never
        #: reach the Flow and ordering is deterministic.
        self._horizon: list[tuple[float, int, int, Flow]] = []
        #: The single pending wake-up timer (kernel event) and its time.
        self._timer: Optional[Event] = None
        self._timer_at = float("inf")
        #: Absolute time of the next global resample; re-phased to
        #: ``now + tick`` by every scheduler event, mirroring the old
        #: global scheduler's ``min(horizon, tick)`` timer.
        self._tick_at = float("inf")
        #: Active flows with rate > 0; 0 with flows active = stalled.
        self._positive_rates = 0
        self._all_stalled = False
        #: Optional admission gate consulted on every re-rate: return
        #: False to pin the flow at rate 0 (e.g. its endpoints are
        #: partitioned).  None = legacy semantics (flows stream through
        #: partitions); see Network.enable_flow_partition_gating().
        self.rate_gate: Optional[Callable[[Flow], bool]] = None
        #: Lifetime counters — plain ints on the hot path (the kernel
        #: pattern): every scheduler event pays integer adds, not
        #: instrument calls; :meth:`flush_metrics` publishes deltas.
        self.flows_started = 0
        self.flows_finished = 0
        self.reconciles = 0
        self.stall_windows = 0
        self.max_active = 0
        self.horizon_swept = 0
        self._flushed_started = 0
        self._flushed_finished = 0
        self._flushed_reconciles = 0
        self._flushed_stalls = 0
        #: Registry :meth:`flush_metrics` publishes to by default.
        self.metrics = metrics if metrics is not None else active_registry()
        # Histograms carry per-sample distributions, so they stay bound
        # and observed live (one no-op call each with the default
        # registry); everything scalar is batched above.
        reg = self.metrics
        self._m_goodput = reg.histogram("flow.goodput_mbps", DEFAULT_RATE_BUCKETS)
        self._m_touched = reg.histogram(
            "flow.touched_per_reconcile", _TOUCHED_BUCKETS
        )

    @property
    def active_flows(self) -> int:
        """Number of flows currently in progress."""
        return len(self._flows)

    def start_flow(self, src: "Host", dst: "Host", size_bits: float) -> Event:
        """Begin a bulk flow; the returned event fires on completion."""
        if size_bits <= 0:
            raise ValueError(f"flow size must be > 0, got {size_bits}")
        now = self.sim.now
        done = self.sim.event(name=f"flow {src.hostname}->{dst.hostname}")
        flow = Flow(src, dst, size_bits, done)
        flow.last_update = now
        flow.started_at = now
        self._seq += 1
        flow.seq = self._seq

        # A host builds its links on its first flow, so ``_set_rate``
        # reads them without a test.
        if src._up is None:
            src._links()
        if dst._down is None:
            dst._links()
        # Only flows sharing src's uplink or dst's downlink feel the
        # arrival; bring their progress up to now under the old shares
        # before the counts change.
        touched = self._link_sharers(src, dst)
        for g in touched:
            self._advance(g, now)

        self._flows[flow] = None
        src._up_set[flow] = None
        dst._down_set[flow] = None
        for g in touched:
            self._set_rate(g, now)
        self._set_rate(flow, now)

        self.flows_started += 1
        self.reconciles += 1
        if len(self._flows) > self.max_active:
            self.max_active = len(self._flows)
        self._m_touched.observe(len(touched) + 1)
        self._after_event(now)
        return done

    # -- internals ----------------------------------------------------------

    def _link_sharers(
        self, src: "Host", dst: "Host", exclude: Optional[set] = None
    ) -> list[Flow]:
        """Active flows on src's uplink or dst's downlink, in start
        order per link (uplink first), deduplicated."""
        sharers: list[Flow] = []
        seen: set = set() if exclude is None else exclude
        for g in src._up_set:
            if g not in seen:
                seen.add(g)
                sharers.append(g)
        for g in dst._down_set:
            if g not in seen:
                seen.add(g)
                sharers.append(g)
        return sharers

    def _advance(self, f: Flow, now: float) -> None:
        """Bring ``f``'s progress up to ``now`` at its current rate."""
        dt = now - f.last_update
        if dt > 0.0 and f.rate > 0.0:
            f.remaining -= f.rate * dt
        f.last_update = now

    def _set_rate(self, f: Flow, now: float) -> None:
        """Recompute ``f``'s fair share; push a fresh horizon on change.

        When the recomputed rate is unchanged the existing heap entry
        stays valid (no version bump, no push) — the no-churn case that
        makes arrivals O(flows sharing an endpoint).
        """
        gate = self.rate_gate
        if gate is not None and not gate(f):
            rate = 0.0
        else:
            # ``Host.up_capacity_at``/``down_capacity_at`` inlined: a
            # flow's hosts built their links when it started.
            src = f.src
            dst = f.dst
            up_share = src._up.rate_at(now) * src.link_bw_factor / len(src._up_set)
            down_share = (
                dst._down.rate_at(now) * dst.link_bw_factor / len(dst._down_set)
            )
            rate = up_share if up_share < down_share else down_share
        old = f.rate
        if rate == old:
            return
        if (old > 0.0) != (rate > 0.0):
            self._positive_rates += 1 if rate > 0.0 else -1
        f.rate = rate
        f.ver += 1
        if rate > 0.0:
            heapq.heappush(
                self._horizon, (now + f.remaining / rate, f.seq, f.ver, f)
            )

    def _detach(self, f: Flow) -> None:
        """Remove a finished flow from all live structures."""
        del self._flows[f]
        del f.src._up_set[f]
        del f.dst._down_set[f]
        if f.rate > 0.0:
            self._positive_rates -= 1
        f.ver += 1  # invalidate any heap entries

    def _finish(self, finished: list[Flow], now: float) -> None:
        """Complete ``finished`` flows and re-rate their link sharers."""
        touched: list[Flow] = []
        seen: set = set(finished)
        for f in finished:
            self._detach(f)
        for f in finished:
            touched.extend(self._link_sharers(f.src, f.dst, exclude=seen))
        for g in touched:
            self._advance(g, now)
            self._set_rate(g, now)
        self._m_touched.observe(len(finished) + len(touched))
        self._complete(finished, now)

    def _complete(self, finished: list[Flow], now: float) -> None:
        """Completion bookkeeping — the *single* place a flow is
        resolved: counters, goodput observation, ``done.succeed``.
        Both the horizon path (:meth:`_finish`) and the tick path
        (:meth:`_resample_all`) end here, so they cannot drift."""
        self.flows_finished += len(finished)
        for f in finished:
            duration = now - f.started_at
            if duration > 0:
                self._m_goodput.observe(f.size_bits / duration / 1e6)
            f.done.succeed(f)

    def resample(self) -> None:
        """Force an immediate advance + re-rate of every active flow.

        Fault injection calls this when link capacities change out of
        band (a :class:`~repro.faults.injectors.LinkDegrade` window
        opening or closing) so in-flight transfers feel the new rates
        now instead of at the next periodic tick.
        """
        if not self._flows:
            return
        now = self.sim.now
        self.reconciles += 1
        self._resample_all(now)
        self._after_event(now)

    def _resample_all(self, now: float) -> None:
        """Tick: advance and re-rate every flow (contention changes)."""
        finished: list[Flow] = []
        for f in self._flows:
            self._advance(f, now)
            if f.remaining <= _EPSILON_BITS:
                finished.append(f)
        for f in finished:
            self._detach(f)
        for f in self._flows:
            self._set_rate(f, now)
        self._m_touched.observe(len(self._flows) + len(finished))
        if finished:
            self._complete(finished, now)
        # A tick re-rates every flow, so most pre-tick heap entries
        # just went stale; sweep them now instead of letting churn
        # accumulate dead entries between ``_next_horizon`` pops.
        self._sweep_horizon()

    def _sweep_horizon(self) -> None:
        """Drop stale horizon entries (detached flows, superseded
        versions) when they dominate the heap.

        ``_next_horizon`` only pops stale entries that reach the top;
        entries for long-lived re-rated flows can sit mid-heap
        indefinitely.  Heap keys are unique, so re-heapifying the live
        entries preserves pop order exactly.
        """
        heap = self._horizon
        flows = self._flows
        live = [e for e in heap if e[2] == e[3].ver and e[3] in flows]
        if len(live) < len(heap):
            heapq.heapify(live)
            self._horizon = live
            self.horizon_swept += len(heap) - len(live)

    def _after_event(self, now: float) -> None:
        """Re-phase the tick, update stall state, re-arm the timer.

        Called at the end of every scheduler event (arrival, completion,
        tick).  Kept as one seam so tests can interpose invariant
        checks on every scheduling event.
        """
        if not self._flows:
            self._tick_at = float("inf")
            self._all_stalled = False
            if self._timer is not None:
                self.sim.cancel(self._timer)
                self._timer = None
                self._timer_at = float("inf")
            return
        self._tick_at = now + self.tick
        stalled = self._positive_rates == 0
        if stalled and not self._all_stalled:
            # Count *episodes* of total stall, not reschedules: an
            # unrelated flow arriving during an outage must not inflate
            # the metric.
            self.stall_windows += 1
        self._all_stalled = stalled
        self._reset_timer(now)

    def _next_horizon(self) -> float:
        """Earliest live completion horizon (inf when none); pops stale
        entries lazily."""
        heap = self._horizon
        while heap:
            t, _seq, ver, f = heap[0]
            if ver == f.ver and f in self._flows:
                return t
            heapq.heappop(heap)
        return float("inf")

    def _reset_timer(self, now: float) -> None:
        due = self._next_horizon()
        if self._tick_at < due:
            due = self._tick_at
        if due == self._timer_at and self._timer is not None:  # simlint: disable=SIM004 -- exact copy-equality is the re-arm dedup: _timer_at was assigned from this same computation, never recomputed
            return  # the pending timer is already right
        if self._timer is not None:
            self.sim.cancel(self._timer)
        # Guard against zero-delay livelock from float dust.
        at = max(due, now + _HORIZON_SLACK_S)
        self._timer = self.sim.call_at(at, self._on_timer)
        self._timer_at = due

    def _on_timer(self) -> None:
        now = self.sim.now
        self._timer = None
        self._timer_at = float("inf")
        self.reconciles += 1
        if now + _HORIZON_SLACK_S >= self._tick_at:
            # Periodic resample: every flow feels current contention
            # (and any flow that crept under the epsilon completes).
            self._resample_all(now)
        else:
            finished: list[Flow] = []
            while True:
                t = self._next_horizon()
                if t > now + _HORIZON_SLACK_S:
                    break
                f = heapq.heappop(self._horizon)[3]
                self._advance(f, now)
                if f.remaining <= _EPSILON_BITS:
                    finished.append(f)
                else:
                    # Rare float drift: the horizon was due but bits
                    # remain.  Its live entry was just popped, so push
                    # a fresh one unconditionally — strictly in the
                    # future, else this loop would spin at dt == 0.
                    f.ver += 1
                    if f.rate > 0.0:
                        horizon = now + f.remaining / f.rate
                        if horizon <= now + _HORIZON_SLACK_S:
                            horizon = now + 2.0 * _HORIZON_SLACK_S
                        heapq.heappush(
                            self._horizon, (horizon, f.seq, f.ver, f)
                        )
            if finished:
                self._finish(finished, now)
        self._after_event(now)

    # -- metrics ------------------------------------------------------------

    def flush_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Publish batched scheduler counters into a metrics registry.

        Mirrors :meth:`Simulator.flush_metrics`: counters publish
        deltas since the last flush so repeated flushes never
        double-count; ``registry`` defaults to the one given at
        construction (a no-op with the default null registry).
        """
        reg = registry if registry is not None else self.metrics
        if reg is None or not reg.enabled:
            return
        # Cold path: one lookup per flush, not per event, because the
        # target registry can differ per call.
        reg.counter("flow.started").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.flows_started - self._flushed_started
        )
        reg.counter("flow.finished").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.flows_finished - self._flushed_finished
        )
        reg.counter("flow.reconciles").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.reconciles - self._flushed_reconciles
        )
        reg.counter("flow.zero_rate_windows").inc(  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
            self.stall_windows - self._flushed_stalls
        )
        self._flushed_started = self.flows_started
        self._flushed_finished = self.flows_finished
        self._flushed_reconciles = self.reconciles
        self._flushed_stalls = self.stall_windows
        active = reg.gauge("flow.active")  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
        active.set(len(self._flows))
        active.track_max(self.max_active)


class Host:
    """A live network endpoint bound to one topology node.

    Created via :meth:`Network.host`; do not instantiate directly.
    Slotted: a host has more attributes than a shared-key instance
    dict holds, so each host of a large study carried a full dict.

    The link models, the heavy handling model and the CPU-share
    source are built on first use: the links on the host's first flow
    or capacity query (:meth:`_links`), the handling model on its
    first heavy message or :meth:`overhead_mean`, the CPU source on
    its first :meth:`compute`.  Until then their slots hold None.
    Tests that need to reshape a host patch the class
    (``monkeypatch.setattr(Host, ...)``) or wrap a model an accessor
    reads, after building it through the host (``_links()`` or
    ``_heavy_overhead()``): a model wrapped while its slot is None
    would be replaced on first use.
    """

    __slots__ = (
        "network", "sim", "spec", "hostname", "node", "_region",
        "_up", "_down", "_overhead", "_light_overhead", "_loss",
        "_cpu_share_rng", "_handlers", "cpu", "_up_set",
        "_down_set", "_is_up", "slow_factor", "link_bw_factor",
        "link_latency_factor", "extra_loss", "messages_sent",
        "messages_received", "messages_lost", "bits_sent",
        "bits_received", "_m_msg_latency", "_m_retransmissions",
        "_m_transfer_attempts",
    )

    def __init__(self, network: "Network", spec: NodeSpec) -> None:
        self.network = network
        self.sim = network.sim
        self.spec = spec
        self.hostname = spec.hostname
        #: This host's half of the topology's region-pair latency memo key.
        self._region = spec.site.region.name
        streams = network.streams
        # Built on first use (an idle peer only beacons).  Each model
        # draws only from its own named stream, so building it later
        # changes no stream's sequence.
        self._up: Any = None
        self._down: Any = None
        self._overhead: Any = None
        # Handling for light messages (JXTA's bound-pipe traffic):
        # small, node-independent-scale lognormal (see NodeSpec).
        self._light_overhead = LognormalLatency(
            max(spec.bound_handling_s, 1e-6),
            0.3,
            streams.draws(f"light/{spec.hostname}"),
        )
        if spec.per_mb_loss > 0:
            self._loss = PerUnitLoss(
                spec.per_mb_loss, streams.draws(f"loss/{spec.hostname}")
            )
        else:
            self._loss = NO_LOSS
        self._cpu_share_rng: Any = None

        #: Installed handlers by payload type (see :meth:`on_message`).
        self._handlers: Dict[type, Callable[[Datagram], None]] = {}
        #: The overlay node served by this host, if any: a payload type
        #: with no installed handler is looked up in its
        #: ``handler_for`` on first delivery (see :meth:`serve`).
        self.node: Any = None
        self.cpu = Resource(self.sim, capacity=spec.cores)
        #: Active flows leaving/entering this host's access links, in
        #: start order (dict-as-ordered-set; maintained by the
        #: :class:`FlowScheduler`).  The fair share at each link is
        #: ``capacity / len(set)``.
        self._up_set: Dict["Flow", None] = {}
        self._down_set: Dict["Flow", None] = {}
        self._is_up = True

        #: Fault-injection state (see :mod:`repro.faults`): CPU
        #: slowdown stretches compute and message handling, the link
        #: factors scale access capacity / path latency, and
        #: ``extra_loss`` composes an additional loss model with the
        #: node's calibrated one.
        self.slow_factor = 1.0
        self.link_bw_factor = 1.0
        self.link_latency_factor = 1.0
        self.extra_loss: Any = NO_LOSS

        #: Running delivery/transfer counters.  ``messages_sent`` and
        #: ``messages_lost`` back the ``net.*`` counters, which
        #: :meth:`Network.flush_metrics` publishes.
        self.messages_sent = 0
        self.messages_received = 0
        self.messages_lost = 0
        self.bits_sent = 0.0
        self.bits_received = 0.0

        # Network-wide instruments (shared across hosts; no-ops by default).
        reg = network.metrics
        self._m_msg_latency = reg.histogram("net.message_latency_s")
        self._m_retransmissions = reg.counter("net.retransmissions")
        self._m_transfer_attempts = reg.histogram(
            "net.transfer_attempts", bounds=(1, 2, 3, 5, 10, 20, 50)
        )

    # -- state ---------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """False while crashed."""
        return self._is_up

    def crash(self) -> None:
        """Take the host down: all inbound messages are dropped."""
        self._is_up = False

    def recover(self) -> None:
        """Bring the host back up."""
        self._is_up = True

    def set_slowdown(self, factor: float) -> None:
        """Stretch this node's CPU by ``factor`` (1.0 = nominal).

        Affects :meth:`compute` durations and the receiver-overhead
        component of message delivery — a synthetic SC7.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.slow_factor = float(factor)

    def set_link_factors(
        self, bw_factor: float = 1.0, latency_factor: float = 1.0
    ) -> None:
        """Scale this node's access links (1.0/1.0 = nominal).

        ``bw_factor`` multiplies both access capacities;
        ``latency_factor`` multiplies the base path latency of every
        message into or out of this node.  The caller is responsible
        for poking :meth:`FlowScheduler.resample` so active flows feel
        a capacity change immediately.
        """
        if bw_factor <= 0 or latency_factor <= 0:
            raise ValueError(
                f"link factors must be > 0, got ({bw_factor}, {latency_factor})"
            )
        self.link_bw_factor = float(bw_factor)
        self.link_latency_factor = float(latency_factor)

    def set_extra_loss(self, model: Any) -> None:
        """Compose an additional loss model (None clears it)."""
        self.extra_loss = model if model is not None else NO_LOSS

    def _links(self) -> None:
        """Build the up and down link models (on a first flow or query).

        A :class:`ContendedBandwidth` advances its epochs from -1 on its
        first query, whenever that is, so a link built late yields the
        rates of one built with the host.
        """
        spec = self.spec
        streams = self.network.streams
        links = []
        for direction, nominal in (("up", spec.up_bps), ("down", spec.down_bps)):
            link: Any = ContendedBandwidth(
                nominal,
                streams.draws(f"bw-{direction}/{spec.hostname}"),
                min_share=spec.load_min_share,
                max_share=spec.load_max_share,
            )
            if spec.diurnal_depth > 0:
                link = DiurnalBandwidth(
                    link, depth=spec.diurnal_depth,
                    peak_offset=spec.diurnal_peak_offset_s,
                )
            links.append(link)
        self._up, self._down = links

    def _heavy_overhead(self) -> Any:
        """Build the first-contact handling model (on a first heavy message)."""
        spec = self.spec
        streams = self.network.streams
        model: Any = LognormalLatency(
            max(spec.overhead_s, 1e-6),
            spec.overhead_cv,
            streams.draws(f"overhead/{spec.hostname}"),
        )
        if spec.spike_prob > 0:
            model = SpikyLatency(
                model,
                spec.spike_prob,
                spec.spike_factor,
                streams.draws(f"spikes/{spec.hostname}"),
            )
        self._overhead = model
        return model

    def up_capacity_at(self, now: float) -> float:
        """Instantaneous uplink capacity (bits/s)."""
        if self._up is None:
            self._links()
        return self._up.rate_at(now) * self.link_bw_factor

    def down_capacity_at(self, now: float) -> float:
        """Instantaneous downlink capacity (bits/s)."""
        if self._down is None:
            self._links()
        return self._down.rate_at(now) * self.link_bw_factor

    def planned_up_bps(self) -> float:
        """Mean uplink rate — used by planning/ready-time estimators."""
        if self._up is None:
            self._links()
        return self._up.mean_rate()

    def planned_down_bps(self) -> float:
        """Mean downlink rate — used by planning/ready-time estimators."""
        if self._down is None:
            self._links()
        return self._down.mean_rate()

    def overhead_mean(self) -> float:
        """Mean per-message processing overhead (planning)."""
        model = self._overhead
        if model is None:
            model = self._heavy_overhead()
        return model.mean

    # -- control messages -----------------------------------------------------

    def on_message(self, payload_type: type, handler: Callable[[Datagram], None]) -> None:
        """Register a handler for datagrams whose payload has this type.

        Every handler is installed here, including the ones a served
        node's table binds on first delivery (see :meth:`serve`).
        Delivering a payload type with no handler raises
        :class:`~repro.errors.SimulationError`.
        """
        self._handlers[payload_type] = handler

    def serve(self, node: Any) -> None:
        """Deliver to ``node``'s handlers, each bound on first use.

        ``node.handler_for(payload_type)`` returns the handler for a
        type, or None.  A host then holds handlers only for the types
        it has received.  Serving a new node drops the installed
        handlers of the types its table covers, as registering each of
        them again would.
        """
        handlers = self._handlers
        if handlers:
            for payload_type in list(handlers):
                if node.handler_for(payload_type) is not None:
                    del handlers[payload_type]
        self.node = node

    def send(
        self,
        dst: "Host",
        payload: Any,
        size_bits: float = CONTROL_MESSAGE_BITS,
        light: bool = False,
    ) -> Datagram:
        """Fire-and-forget a control message to ``dst``.

        Returns the in-flight :class:`Datagram`.  Delivery happens after
        path latency plus a receiver-overhead sample; the message may be
        lost (per-unit loss or receiver down), in which case it is
        simply never delivered — reliability is the protocol's job.

        ``light=True`` sends a message JXTA would carry on an
        already-bound pipe: the receiver charges its small
        ``bound_handling_s`` instead of the heavy first-contact overhead
        (pipe resolution).  The file-transfer petition is the canonical
        *heavy* message (Figure 2 measures its reception time); per-part
        confirms are *light*.
        """
        if not self._is_up:
            raise HostDownError(f"{self.hostname} is down")
        now = self.sim._now
        dst_name = dst.hostname
        dgram = Datagram(self.hostname, dst_name, payload, size_bits, now)
        self.messages_sent += 1
        network = self.network
        # ``Topology.one_way_s`` inlined: the region-pair memo, or the
        # method itself on a miss (it fills the memo).
        if dst_name == self.hostname:
            one_way = 0.0
        else:
            topology = network.topology
            one_way = topology._one_way.get((self._region, dst._region))
            if one_way is None:
                one_way = topology.one_way_s(self.spec, dst.spec)
        if light:
            handling = dst._light_overhead
        else:
            handling = dst._overhead
            if handling is None:
                handling = dst._heavy_overhead()
        delay = (
            one_way
            * self.link_latency_factor
            * dst.link_latency_factor
            + handling.sample(now) * dst.slow_factor
        )
        # The draw order is fixed: src loss, dst loss, src extra, dst
        # extra, partition; the short-circuit decides which streams
        # draw.  A host without a fault holds ``NO_LOSS``, which never
        # draws, so its call is skipped; so is the partition test while
        # no partition is active.
        src_extra = self.extra_loss
        dst_extra = dst.extra_loss
        lost = (
            self._loss.unit_lost(size_bits, now)
            or dst._loss.unit_lost(size_bits, now)
            or (src_extra is not NO_LOSS and src_extra.unit_lost(size_bits, now))
            or (dst_extra is not NO_LOSS and dst_extra.unit_lost(size_bits, now))
        )
        if not lost and network._partitions:
            lost = network.is_partitioned(self.hostname, dst_name)
        tracer = network.tracer
        if tracer.enabled:
            tracer.record(
                "msg-send", now, src=self.hostname, dst=dst_name,
                payload_kind=type(payload).__name__, lost=lost,
            )
        if lost:
            self.messages_lost += 1
            return dgram
        # ``call_in``'s key, scheduled through ``call_at`` directly.
        self.sim.call_at(now + delay, dst._deliver, dgram)
        return dgram

    def _deliver(self, dgram: Datagram) -> None:
        now = self.sim._now
        tracer = self.network.tracer
        if not self._is_up:
            tracer.record("msg-drop-down", now, dst=self.hostname)
            return
        dgram.delivered_at = now
        self.messages_received += 1
        latency = now - dgram.sent_at
        self._m_msg_latency.observe(latency)
        if tracer.enabled:
            tracer.record(
                "msg-recv", now, src=dgram.src, dst=dgram.dst,
                payload_kind=type(dgram.payload).__name__, latency=latency,
            )
        payload_type = type(dgram.payload)
        handler = self._handlers.get(payload_type)
        if handler is None and self.node is not None:
            bound = self.node.handler_for(payload_type)
            if bound is not None:
                # Install through the one seam, then call what it
                # installed (a wrapper may stand in for ``bound``).
                self.on_message(payload_type, bound)
                handler = self._handlers[payload_type]
        if handler is None:
            raise SimulationError(
                f"{self.hostname}: no handler for {payload_type.__name__} "
                f"from {dgram.src}"
            )
        handler(dgram)

    # -- bulk transfers ---------------------------------------------------------

    def start_flow(self, dst: "Host", size_bits: float) -> Event:
        """Low-level: start a raw bulk flow (no loss, no retries).

        A *down destination* does not raise: the sender cannot know the
        receiver died, so the bits stream into the void and the unit
        counts as lost (``reliable_transfer`` then times out and
        retries) — exactly the failure a live network shows.
        """
        if not self._is_up:
            raise HostDownError(f"{self.hostname} is down")
        return self.network.flows.start_flow(self, dst, size_bits)

    def reliable_transfer(
        self,
        dst: "Host",
        size_bits: float,
        max_attempts: int = 50,
        loss_timeout_factor: float = 1.0,
    ):
        """Generator: move ``size_bits`` to ``dst`` reliably.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Each attempt streams the whole unit; on (unit-level) loss the
        sender detects the failure only after a stall timeout
        proportional to the attempt's duration (``loss_timeout_factor``
        defaults to 1.0 — the retransmission timer scales with how long
        the unit took to stream), then retries.  Returns a
        :class:`TransferReport`; raises :class:`TransferAborted` after
        ``max_attempts`` failures.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        started = self.sim.now
        wasted = 0.0
        for attempt in range(1, max_attempts + 1):
            attempt_started = self.sim.now
            flow_done = self.start_flow(dst, size_bits)
            yield flow_done
            now = self.sim.now
            self.bits_sent += size_bits
            lost = (
                self._loss.unit_lost(size_bits, now)
                or dst._loss.unit_lost(size_bits, now)
                or self.extra_loss.unit_lost(size_bits, now)
                or dst.extra_loss.unit_lost(size_bits, now)
                or self.network.is_partitioned(self.hostname, dst.hostname)
            )
            if not lost and dst._is_up:
                dst.bits_received += size_bits
                self._m_transfer_attempts.observe(attempt)
                report = TransferReport(
                    src=self.hostname,
                    dst=dst.hostname,
                    size_bits=size_bits,
                    started_at=started,
                    finished_at=now,
                    attempts=attempt,
                    wasted_bits=wasted,
                )
                self.network.tracer.record(
                    "transfer-done", now, src=self.hostname, dst=dst.hostname,
                    size_bits=size_bits, attempts=attempt,
                    duration=report.duration,
                )
                return report
            wasted += size_bits
            self._m_retransmissions.inc()
            attempt_duration = now - attempt_started
            detection = max(loss_timeout_factor * attempt_duration, 0.05)
            self.network.tracer.record(
                "transfer-retry", now, src=self.hostname, dst=dst.hostname,
                size_bits=size_bits, attempt=attempt,
            )
            yield detection
        raise TransferAborted(
            f"{self.hostname}->{dst.hostname}: {max_attempts} attempts failed"
        )

    # -- computation -------------------------------------------------------------

    def compute(self, ops: float):
        """Generator: execute ``ops`` normalized operations.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Acquires a CPU slot (FIFO among concurrent tasks), then runs
        for ``ops / (cpu_speed * share)`` seconds where ``share`` is a
        fresh draw of the sliver's available CPU fraction.  Returns the
        busy time (excluding queueing).
        """
        if ops < 0:
            raise ValueError(f"ops must be >= 0, got {ops}")
        yield self.cpu.request()
        try:
            rng = self._cpu_share_rng
            if rng is None:
                rng = self._cpu_share_rng = self.network.streams.draws(
                    f"cpu/{self.hostname}"
                )
            share = rng.uniform(self.spec.load_min_share, self.spec.load_max_share)
            duration = ops * self.slow_factor / (self.spec.cpu_speed * share)
            yield duration
            return duration
        finally:
            self.cpu.release()

    def planned_compute_seconds(self, ops: float) -> float:
        """Planning estimate of :meth:`compute` (mean share)."""
        mean_share = 0.5 * (self.spec.load_min_share + self.spec.load_max_share)
        return ops / (self.spec.cpu_speed * mean_share)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.hostname} {'up' if self._is_up else 'DOWN'}>"


class Network:
    """Binds a simulator, a topology and random streams into live hosts."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        streams: Optional[RandomStreams] = None,
        tracer: Optional[EventTrace] = None,
        flow_tick: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.streams = streams if streams is not None else RandomStreams(seed=0)
        if tracer is None:
            # Imported here: repro.obs.trace imports this package.
            from repro.obs.trace import EventTrace

            tracer = EventTrace(enabled=False)
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else active_registry()
        self.flows = FlowScheduler(sim, tick=flow_tick, metrics=self.metrics)
        self._hosts: Dict[str, Host] = {}
        #: Active partitions: token -> (group_a, group_b) hostname
        #: frozensets.  Everything between the two groups is dropped.
        self._partitions: Dict[int, tuple[frozenset, frozenset]] = {}
        self._partition_seq = 0
        self._flow_gating = False
        #: Message totals already published by :meth:`flush_metrics`.
        self._flushed_sent = 0
        self._flushed_lost = 0

    def host(self, hostname: str) -> Host:
        """Return (creating on first use) the live host for ``hostname``."""
        h = self._hosts.get(hostname)
        if h is None:
            spec = self.topology.node(hostname)
            h = Host(self, spec)
            self._hosts[hostname] = h
        return h

    def hosts(self) -> tuple[Host, ...]:
        """All instantiated hosts, in creation order."""
        return tuple(self._hosts.values())

    def boot_all(self) -> tuple[Host, ...]:
        """Instantiate a host for every topology node."""
        return tuple(self.host(name) for name in self.topology.hostnames())

    # -- partitions (fault injection) -------------------------------------------

    def add_partition(self, group_a, group_b) -> int:
        """Split the network: drop everything between the two groups.

        Both groups are iterables of hostnames.  Returns a token for
        :meth:`remove_partition`.  Partitions are unit-level: control
        messages and bulk units crossing the cut count as lost, so
        protocols see timeouts, not errors — exactly the failure a real
        netsplit shows.
        """
        a = frozenset(group_a)
        b = frozenset(group_b)
        if not a or not b:
            raise ValueError("partition groups must be non-empty")
        overlap = a & b
        if overlap:
            raise ValueError(f"partition groups overlap: {sorted(overlap)}")
        self._partition_seq += 1
        token = self._partition_seq
        self._partitions[token] = (a, b)
        if self._flow_gating:
            self.flows.resample()
        return token

    def remove_partition(self, token: int) -> None:
        """Heal the partition identified by ``token``."""
        if token not in self._partitions:
            raise ValueError(f"no active partition with token {token}")
        del self._partitions[token]
        if self._flow_gating:
            self.flows.resample()

    def enable_flow_partition_gating(self) -> None:
        """Opt in to partition-aware bulk flows.

        With gating on, a flow whose endpoints sit on opposite sides of
        an active partition is pinned at rate 0 until the partition
        heals — and every partition change triggers an immediate
        resample, so a heal never leaves a zero-capacity flow waiting
        for the next tick (nor does a resample during the cut
        re-activate it).  Off by default: legacy semantics let flows
        stream through partitions (only unit messages are dropped), and
        several experiments pin that behavior.  Idempotent.
        """
        if self._flow_gating:
            return
        self._flow_gating = True
        self.flows.rate_gate = self._flow_rate_gate
        self.flows.resample()

    def _flow_rate_gate(self, flow: Flow) -> bool:
        return not self.is_partitioned(flow.src.hostname, flow.dst.hostname)

    def flush_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Flush kernel, flow-scheduler and message counters in one call.

        ``net.messages_sent`` and ``net.messages_lost`` are the hosts'
        ``messages_sent``/``messages_lost`` integers, published as
        deltas since the last flush, like the kernel's counters.
        """
        self.sim.flush_metrics(registry)
        self.flows.flush_metrics(registry)
        reg = registry if registry is not None else self.metrics
        if reg is None or not reg.enabled:
            return
        sent = lost = 0
        for host in self._hosts.values():
            sent += host.messages_sent
            lost += host.messages_lost
        # Cold path: one lookup per flush, as in FlowScheduler.flush_metrics.
        reg.counter("net.messages_sent").inc(sent - self._flushed_sent)  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
        reg.counter("net.messages_lost").inc(lost - self._flushed_lost)  # simlint: disable=SIM006 -- per-flush lookup, registry varies per call
        self._flushed_sent = sent
        self._flushed_lost = lost

    def is_partitioned(self, a: str, b: str) -> bool:
        """True when a unit from ``a`` to ``b`` would cross a cut."""
        if not self._partitions:
            return False
        for ga, gb in self._partitions.values():
            if (a in ga and b in gb) or (a in gb and b in ga):
                return True
        return False
