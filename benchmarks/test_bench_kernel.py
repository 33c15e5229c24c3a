"""Micro-benchmarks of the DES kernel and the transport hot paths.

Not a paper artifact — these track the simulator's own performance so
regressions in the hot loops (heap scheduling, flow reconciliation)
are visible, per the HPC guide's "no optimization without measuring".
Every test is a plain test: a ``test_bench_*`` workload runs once and
asserts its count (the cancel/re-arm one also gates agenda
compaction), and the ``*_floor``/``*_ceiling`` tests time or measure
their own runs.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import replace

from repro.experiments import resilience
from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import get_profile
from repro.obs.metrics import MetricsRegistry
from repro.recovery import RecoveryConfig
from repro.simnet.kernel import _COMPACT_MIN_TOMBSTONES, Simulator
from repro.simnet.planetlab import build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import make_two_node_topology

N_EVENTS = 20_000

#: Regression floor for the raw event loop — observed rates are well
#: over 10x this; the floor only trips on catastrophic hot-path
#: regressions, not on slow CI hardware.
TIMEOUT_CHURN_FLOOR_EV_S = 20_000.0

#: Timers of the timer-chain gate: ``TIMER_CHAIN_AGENDA`` chains of
#: ``call_in`` timers, each re-arming itself until ``TIMER_CHAIN_EVENTS``
#: timers have been scheduled, so the agenda holds about 1k entries.
TIMER_CHAIN_EVENTS = 50_000
TIMER_CHAIN_AGENDA = 1_000

#: Regression floor for the timer path (best of three runs, collector
#: paused).  When each timer fired through a callback function and
#: carried its own callbacks list, the chain ran at 335-364k events/s
#: on a 2-vCPU host (best of 5); fired directly by ``Simulator.step``,
#: at 336-443k.  The floor is about half the former rate.
TIMER_CHAIN_FLOOR_EV_S = 180_000.0

#: Regression floor for the control-message path (send, schedule,
#: deliver, handler); same spirit as the event-loop floor above.
MESSAGE_ROUNDTRIP_FLOOR_MSG_S = 10_000.0

#: Regression floor for building live hosts (best of three builds,
#: collector paused).  A host whose seven per-host streams each seed
#: a numpy generator up front builds at about 6-9k hosts/s on a
#: 2-vCPU host; lazily seeded draw sources build at about 50k hosts/s
#: there.  The floor sits between, so a return to eager seeding
#: fails it.
HOST_BUILD_FLOOR_HOSTS_S = 12_000.0

#: Regression floor for the beacon path (best of three runs, collector
#: paused): keepalives and stat reports from the paper's 8 idle
#: SimpleClients, each one built, sent, delivered and merged into the
#: broker's record.  Observed rates on a 2-vCPU host are 45-96k
#: beacons/s, depending on host load; the floor only trips when the
#: per-beacon cost triples.
BEACON_PATH_FLOOR_BEACONS_S = 15_000.0

#: Simulated idle time of the beacon-path gate: 8 clients beacon
#: about 1800 times each in 10 hours (a keepalive every 30 s, a stat
#: report every 60 s).
BEACON_IDLE_S = 10 * 3600.0

#: Idle keepalive peers of the per-peer memory gate, and how long they
#: sit connected before the count.
IDLE_PEERS = 200
IDLE_PEER_S = 600.0

#: Ceiling on live bytes (tracemalloc) per idle connected peer.  On
#: Python 3.11 a peer whose stores, resource, histories and event log
#: each hold an empty 64-slot deque block, and whose two beacon loops
#: are generator processes, measures about 28 KB; with the containers
#: allocated on first use and the beacons as kernel timers, about
#: 18 KB; with handlers bound on first delivery, a slotted host and
#: one freshness stamp per beacon source, about 13.9 KB; with streams
#: seeded without a ``SeedSequence`` and draws buffered as doubles,
#: about 12.8 KB; with the links, heavy handling, CPU and task-failure
#: sources and the overlay services built on first use, about
#: 10.1 KB; with no host inbox and no instant-message store, about
#: 9.7 KB.  The 10.5 KB ceiling catches the shared-key dict cliff: a
#: 30th peer attribute costs every peer a full instance dict (about
#: 1.3 KB), where 12.8 + 1.1 KB passed the old 14 KB ceiling.  It
#: also fails a return to eager links or services, a handler per
#: message type, an instance dict per host or a freshness time per
#: key.  A seed sequence or a float list per stream would pass it;
#: tests/simnet/test_rng.py checks those instead.
IDLE_PEER_BYTES_CEILING = 10_500

#: Ceilings of the spawn guard: one recovery-on ``resilience`` cell
#: (``broker_blip``, blind policy, seed 2007).  With every request,
#: petition, part and join that its caller waits on at once run through
#: ``Simulator.call``, and each k=1 delivery running its leg inside
#: ``download``, the cell made exactly 50 processes and 3,135 kernel
#: events; with a process per child it made 635 and 4,304.  With each
#: timed wait run by ``Simulator.within`` (no any-of relay, and the
#: deadline timer cancelled when the reply comes first) it makes 2,595
#: events and cancels 265 timers.  A spawn-and-wait that comes back adds
#: a process and up to two events per call, and a deadline left to fire
#: after its wait ended adds an event, so either fails the guard; a
#: wait that arms a timer it does not need fails the cancelled ceiling.
SPAWN_GUARD_PROCESSES = 50
SPAWN_GUARD_EVENTS = 2_595
SPAWN_GUARD_CANCELLED = 265


def _timeout_churn():
    sim = Simulator()
    count = 0

    def proc():
        nonlocal count
        for _ in range(N_EVENTS // 10):
            yield 1.0
            count += 1

    for _ in range(10):
        sim.process(proc())
    sim.run()
    return count


def _timer_chain():
    """``TIMER_CHAIN_EVENTS`` ``call_in`` timers in chains over a steady
    agenda of ``TIMER_CHAIN_AGENDA``: each firing re-arms its chain at a
    delay set by the chain, as the beacon and SWIM timers do."""
    sim = Simulator()
    scheduled = TIMER_CHAIN_AGENDA
    fired = 0

    def tick(period):
        nonlocal scheduled, fired
        fired += 1
        if scheduled < TIMER_CHAIN_EVENTS:
            scheduled += 1
            sim.call_in(period, tick, period)

    for chain in range(TIMER_CHAIN_AGENDA):
        sim.call_in(chain * 1e-3, tick, 1.0 + chain * 1e-3)
    sim.run()
    return fired


def test_timer_chain_events_per_s_floor():
    """Plain stdlib-timed throughput gate on ``call_in`` timers.

    The best of three runs, each with the cycle collector paused, as
    in the host-build gate.
    """
    best = 0.0
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            count, rate = _per_second(_timer_chain)
        finally:
            gc.enable()
        assert count == TIMER_CHAIN_EVENTS
        best = max(best, rate)
    assert best >= TIMER_CHAIN_FLOOR_EV_S, (
        f"timer chain at {best:.0f} events/s, below the "
        f"{TIMER_CHAIN_FLOOR_EV_S:.0f} regression floor"
    )


def test_bench_kernel_timeout_churn():
    assert _timeout_churn() == N_EVENTS


def _flow_churn():
    sim = Simulator()
    net = Network(sim, make_two_node_topology(), streams=RandomStreams(1))
    a, b = net.host("a.example"), net.host("b.example")
    done = []
    for _ in range(200):
        done.append(a.start_flow(b, mbit(1)))
    sim.run(until=sim.all_of(done))
    return len(done)


def test_bench_flow_scheduler_churn():
    assert _flow_churn() == 200


def _message_churn():
    sim = Simulator()
    net = Network(sim, make_two_node_topology(), streams=RandomStreams(2))
    a, b = net.host("a.example"), net.host("b.example")

    class Ping:
        pass

    # A payload with no handler raises on delivery.
    b.on_message(Ping, lambda dgram: None)
    for _ in range(2000):
        a.send(b, Ping())
    sim.run()
    return b.messages_received


def test_bench_message_churn():
    assert _message_churn() == 2000


class _Ping:
    __slots__ = ()


class _Pong:
    __slots__ = ()


def _message_roundtrip():
    """``N_EVENTS`` light control messages bounced between two hosts:
    each delivery's handler sends the next message, so every message
    takes the whole ``Host.send`` -> agenda -> ``_deliver`` -> handler
    path with a live metrics registry, as the beacon traffic does."""
    sim = Simulator()
    net = Network(sim, make_two_node_topology(), streams=RandomStreams(3),
                  metrics=MetricsRegistry())
    a, b = net.host("a.example"), net.host("b.example")
    ping, pong = _Ping(), _Pong()

    def on_ping(dgram):
        b.send(a, pong, light=True)

    def on_pong(dgram):
        if a.messages_sent < N_EVENTS // 2:
            a.send(b, ping, light=True)

    b.on_message(_Ping, on_ping)
    a.on_message(_Pong, on_pong)
    a.send(b, ping, light=True)
    sim.run()
    return a.messages_received + b.messages_received


def test_bench_message_roundtrip():
    assert _message_roundtrip() == N_EVENTS


def test_message_roundtrip_msgs_per_s_floor():
    """Plain stdlib-timed throughput gate on the message path."""
    count, rate = _per_second(_message_roundtrip)
    assert count == N_EVENTS
    assert rate >= MESSAGE_ROUNDTRIP_FLOOR_MSG_S, (
        f"message path at {rate:.0f} msgs/s, below the "
        f"{MESSAGE_ROUNDTRIP_FLOOR_MSG_S:.0f} regression floor"
    )


def _host_build():
    """Every host of the 1000-sliver synthetic testbed, built on a
    fresh network (the testbed itself is built outside the timing)."""
    topology = build_testbed(synthetic_nodes=1000).topology

    def build():
        net = Network(Simulator(), topology, streams=RandomStreams(4))
        return len([net.host(name) for name in topology.hostnames()])

    return build


def test_host_build_hosts_per_s_floor():
    """Plain stdlib-timed throughput gate on host construction.

    The best of three builds, each with the cycle collector paused, so
    the gate measures construction rather than a collection or a
    scheduler hiccup landing in one ~30 ms window.
    """
    build = _host_build()
    best = 0.0
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            count, rate = _per_second(build)
        finally:
            gc.enable()
        assert count >= 1000
        best = max(best, rate)
    assert best >= HOST_BUILD_FLOOR_HOSTS_S, (
        f"host construction at {best:.0f} hosts/s, below the "
        f"{HOST_BUILD_FLOOR_HOSTS_S:.0f} regression floor"
    )


def _beacon_path():
    """Beacons sent by the paper's 8 SimpleClients over ``BEACON_IDLE_S``
    of idle simulated time, the session built and connected outside
    the timing."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.scenario import Session

    session = Session(ExperimentConfig(seed=2011))
    sim = session.sim
    sim.run(until=sim.process(session.connect_all()))
    hosts = [c.host for c in session.clients.values()]
    sent = sum(h.messages_sent for h in hosts)

    def run():
        sim.run(until=sim.now + BEACON_IDLE_S)
        return sum(h.messages_sent for h in hosts) - sent

    return run


def test_beacon_path_beacons_per_s_floor():
    """Plain stdlib-timed throughput gate on the beacon path.

    The best of three runs, each on a fresh session with the cycle
    collector paused, as in the host-build gate.
    """
    best = 0.0
    for _ in range(3):
        run = _beacon_path()
        gc.collect()
        gc.disable()
        try:
            count, rate = _per_second(run)
        finally:
            gc.enable()
        assert count > 8 * 1790
        best = max(best, rate)
    assert best >= BEACON_PATH_FLOOR_BEACONS_S, (
        f"beacon path at {best:.0f} beacons/s, below the "
        f"{BEACON_PATH_FLOOR_BEACONS_S:.0f} regression floor"
    )


def _idle_peer_bytes() -> float:
    """Live bytes per connected keepalive peer after ``IDLE_PEER_S`` idle.

    The session (testbed, broker, the paper's SimpleClients) is built
    before the count starts; the count covers each extra peer's host,
    client, join and beacons, and the broker's record of it.
    """
    from repro.experiments import ExperimentConfig
    from repro.experiments.scenario import Session
    from repro.experiments.steps import in_waves
    from repro.overlay.client import SimpleClient
    from repro.simnet.planetlab import synthetic_hostnames

    session = Session(ExperimentConfig(seed=2011, synthetic_nodes=IDLE_PEERS))
    sim = session.sim
    badv = session.broker.advertisement()

    def join_all(peers):
        joins = (sim.process(peer.connect(badv)) for peer in peers)
        yield from in_waves(joins, 64)

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        peers = [
            SimpleClient(session.network, hostname, session.ids, name=hostname,
                         config=session.config.peer_config)
            for hostname in synthetic_hostnames(IDLE_PEERS)
        ]
        sim.run(until=sim.process(join_all(peers)))
        sim.run(until=sim.now + IDLE_PEER_S)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(peer.online for peer in peers)
    return (after - before) / IDLE_PEERS


def test_idle_peer_bytes_ceiling():
    """Memory gate on what one idle connected peer keeps alive."""
    per_peer = _idle_peer_bytes()
    assert per_peer <= IDLE_PEER_BYTES_CEILING, (
        f"an idle connected peer holds {per_peer:.0f} bytes, above the "
        f"{IDLE_PEER_BYTES_CEILING} byte ceiling"
    )


def test_beacon_handlers_traced_under_overlay():
    """The handler seam the suite tracer wraps: a handler bound on
    first delivery is installed through ``Host.on_message``, so the
    broker's beacon handlers are booked as *overlay* spans under
    their own qualnames (``overlay.liveness_self_s`` sums those)."""
    from benchmarks.suite.tracer import LayerTracer, installed
    from repro.experiments import ExperimentConfig
    from repro.experiments.scenario import Session
    from repro.obs import use_registry

    tracer = LayerTracer()
    registry = MetricsRegistry()
    with installed(tracer), use_registry(registry):
        session = Session(ExperimentConfig(seed=2011))
        sim = session.sim
        sim.run(until=sim.process(session.connect_all()))
        sim.run(until=sim.now + 600.0)
    spans = {}
    for (layer, qualname, _parent), (count, _self_s, _total_s) in tracer.spans.items():
        if qualname.startswith("Broker._on_"):
            assert layer == "overlay", (layer, qualname)
            spans[qualname] = spans.get(qualname, 0) + count
    keepalive = [q for q in spans if "keepalive" in q]
    stat_report = [q for q in spans if "stat_report" in q]
    assert keepalive and stat_report, sorted(spans)
    # Every beacon the broker handled ran inside a span.
    assert sum(spans[q] for q in keepalive) == registry.counter(
        "broker.keepalives").value > 0
    assert sum(spans[q] for q in stat_report) == registry.counter(
        "broker.stat_reports").value > 0


def _cancel_rearm_churn():
    """The flow scheduler's supersede pattern, distilled: one far-future
    timer cancelled and re-armed per simulated event."""
    sim = Simulator()
    n_cycles = N_EVENTS

    def proc():
        pending = None
        for i in range(n_cycles):
            if pending is not None:
                sim.cancel(pending)
            pending = sim.call_in(1e6, lambda: None)
            yield 0.001
        if pending is not None:
            sim.cancel(pending)

    p = sim.process(proc())
    sim.run(until=p)
    return sim


def test_bench_cancel_rearm_churn():
    sim = _cancel_rearm_churn()
    # The tombstone-compaction gate: pre-compaction every superseded
    # timer sat in the heap until t=1e6, so depth tracked the cancel
    # count (~N_EVENTS); now it tracks the compaction threshold.
    assert sim.max_agenda_depth <= 4 * _COMPACT_MIN_TOMBSTONES
    assert sim.agenda_compactions > 0
    # All but the last sub-threshold batch of tombstones (the run ends
    # before their distant due time) have been reclaimed.
    assert sim.events_cancelled >= N_EVENTS - _COMPACT_MIN_TOMBSTONES


def _per_second(work):
    """Run ``work()`` once; return its count and count per wall second."""
    started = time.perf_counter()  # simlint: disable=SIM001 -- measured wall-clock of the bench run, not a simulated quantity
    count = work()
    wall_s = time.perf_counter() - started  # simlint: disable=SIM001 -- measured wall-clock of the bench run, not a simulated quantity
    return count, count / wall_s


def test_timeout_churn_events_per_s_floor():
    """Plain stdlib-timed throughput gate on the raw event loop."""
    count, rate = _per_second(_timeout_churn)
    assert count == N_EVENTS
    assert rate >= TIMEOUT_CHURN_FLOOR_EV_S, (
        f"kernel event loop at {rate:.0f} events/s, below the "
        f"{TIMEOUT_CHURN_FLOOR_EV_S:.0f} regression floor"
    )


def test_resilience_cell_spawns_only_for_concurrency(monkeypatch):
    """Process, event and cancelled-timer ceilings on one recovery-on
    resilience cell.

    All three counts are deterministic at a fixed seed, so the bounds
    are the counts themselves.
    """
    made = [0]
    spawn = Simulator.process

    def counting(sim, generator, name=""):
        made[0] += 1
        return spawn(sim, generator, name)

    monkeypatch.setattr(Simulator, "process", counting)
    config = replace(
        ExperimentConfig(seed=2007, repetitions=1, recovery=RecoveryConfig()),
        peer_config=resilience._RESILIENCE_PEER_CONFIG,
        fault_plan=get_profile("broker_blip"),
    )
    session = Session(config)
    rows = session.run(lambda s: resilience._scenario(s, "blind"))
    assert rows["completed"] == 10.0 and rows["resumes"] == 1.0
    assert made[0] <= SPAWN_GUARD_PROCESSES, (
        f"{made[0]} processes, above the {SPAWN_GUARD_PROCESSES} ceiling: "
        "a child its caller waits on at once should run with sim.call"
    )
    events = session.sim.events_processed
    assert events <= SPAWN_GUARD_EVENTS, (
        f"{events} kernel events, above the {SPAWN_GUARD_EVENTS} ceiling"
    )
    cancelled = session.sim.events_cancelled
    assert cancelled <= SPAWN_GUARD_CANCELLED, (
        f"{cancelled} cancelled timers, above the {SPAWN_GUARD_CANCELLED} ceiling"
    )
