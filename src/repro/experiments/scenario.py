"""Experiment scenario wiring.

A :class:`Session` assembles one complete simulated deployment — the
PlanetLab testbed, a simulator, a broker on the nozomi cluster head and
the eight SimpleClients — exactly as the paper's evaluation (§4.1).
The :class:`ExperimentConfig` carries the knobs shared by all figures
(seed, repetition count — five, like the paper — and tracing).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, FaultRuntime
from repro.gossip.config import GossipConfig
from repro.gossip.federation import BROKER_PROBE_INTERVAL_S, Federation
from repro.obs.runtime import active_registry
from repro.obs.trace import EventTrace
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.overlay.peer import PeerConfig
from repro.recovery.config import RecoveryConfig
from repro.recovery.standby import (
    FAILOVER_CHECK_INTERVAL_S,
    FAILOVER_PING_TIMEOUT_S,
    FailoverDirector,
)
from repro.simnet.kernel import Simulator
from repro.simnet.planetlab import PlanetLabTestbed, build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network

__all__ = ["ExperimentConfig", "Session"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for all experiments."""

    #: Master seed; repetition ``i`` forks substreams from it.
    seed: int = 2007
    #: Paper: "the experiment was repeated 5 times".
    repetitions: int = 5
    #: Include the full 25-node Table 1 slice (False = broker + SCs,
    #: matching the subset the paper's computational results use).
    include_full_slice: bool = False
    #: Extra synthetic slivers appended to the slice (the large-pool
    #: scale study's substrate; 0 = the paper's physical testbed).
    synthetic_nodes: int = 0
    #: Enable structured tracing (costs memory).
    trace: bool = False
    #: Bound trace memory to a ring of this many recent events
    #: (None = keep all).
    trace_capacity: Optional[int] = None
    #: Flow-scheduler reconcile tick (seconds).
    flow_tick: float = 10.0
    #: Override peer protocol parameters (None = defaults).
    peer_config: Optional[PeerConfig] = None
    #: Fault-injection plan, installed once the overlay is connected
    #: (base time = end of connect); None = no injected faults.
    fault_plan: Optional[FaultPlan] = None
    #: Self-healing layer (transfer resume, standby broker failover,
    #: degraded-mode selection, partition-aware flow gating); None = no
    #: recovery, faults lose work.
    recovery: Optional[RecoveryConfig] = None
    #: Gossip control plane (SWIM liveness + sharded federation); None
    #: = the legacy per-client keepalive control plane.
    gossip: Optional["GossipConfig"] = None
    #: Brokers in the federation (1 = the single nozomi head broker;
    #: > 1 provisions extra broker nodes and shards the registry —
    #: requires ``gossip``).
    federation_brokers: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.federation_brokers < 1:
            raise ConfigError("federation_brokers must be >= 1")
        if self.federation_brokers > 1 and self.gossip is None:
            raise ConfigError(
                "federation_brokers > 1 requires a gossip config "
                "(the sharded registry is gossip-governed)"
            )
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.synthetic_nodes < 0:
            raise ConfigError("synthetic_nodes must be >= 0")
        if self.flow_tick <= 0:
            raise ConfigError("flow_tick must be > 0")
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ConfigError("trace_capacity must be >= 1")

    def for_repetition(self, rep: int) -> "ExperimentConfig":
        """Config with the repetition-specific derived seed."""
        if not 0 <= rep < self.repetitions:
            raise ConfigError(f"repetition {rep} out of range")
        return replace(self, seed=self.seed * 10_007 + rep, repetitions=1)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        out = {
            "seed": self.seed,
            "repetitions": self.repetitions,
            "include_full_slice": self.include_full_slice,
            "synthetic_nodes": self.synthetic_nodes,
            "trace": self.trace,
            "trace_capacity": self.trace_capacity,
            "flow_tick": self.flow_tick,
            "federation_brokers": self.federation_brokers,
        }
        if self.gossip is not None:
            out["gossip"] = self.gossip.to_dict()
        if self.peer_config is not None:
            out["peer_config"] = dataclasses.asdict(self.peer_config)
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        if self.recovery is not None:
            out["recovery"] = self.recovery.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(data)
        peer_config = data.pop("peer_config", None)
        fault_plan = data.pop("fault_plan", None)
        recovery = data.pop("recovery", None)
        gossip = data.pop("gossip", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if peer_config is not None:
            data["peer_config"] = PeerConfig.from_dict(peer_config)
        if fault_plan is not None:
            data["fault_plan"] = FaultPlan.from_dict(fault_plan)
        if recovery is not None:
            data["recovery"] = RecoveryConfig.from_dict(recovery)
        if gossip is not None:
            data["gossip"] = GossipConfig.from_dict(gossip)
        return cls(**data)

    def save(self, path) -> None:
        """Write the config as JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a config written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text()))


class Session:
    """One wired simulation: testbed + broker + SimpleClients."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        with_standby = config.recovery is not None
        self.testbed: PlanetLabTestbed = build_testbed(
            include_full_slice=config.include_full_slice,
            synthetic_nodes=config.synthetic_nodes,
            with_standby=with_standby,
            federation_brokers=config.federation_brokers,
        )
        #: The process-wide registry active at construction time — the
        #: shared no-op unless an experiment driver installed one.
        self.metrics = active_registry()
        self.sim = Simulator(metrics=self.metrics)
        self.streams = RandomStreams(seed=config.seed)
        self.tracer = EventTrace(
            enabled=config.trace, capacity=config.trace_capacity
        )
        self.network = Network(
            self.sim,
            self.testbed.topology,
            streams=self.streams,
            tracer=self.tracer,
            flow_tick=config.flow_tick,
            metrics=self.metrics,
        )
        ids = IdFactory(namespace=f"run-{config.seed}")
        self.ids = ids
        self.broker = Broker(
            self.network,
            self.testbed.broker_hostname,
            ids,
            name="broker",
            config=config.peer_config,
        )
        #: All federation brokers, head first (just the head outside
        #: federated deployments).
        self.brokers: list[Broker] = [self.broker]
        for i, hostname in enumerate(self.testbed.federation[1:], start=2):
            self.brokers.append(
                Broker(
                    self.network,
                    hostname,
                    ids,
                    name=f"broker{i}",
                    config=config.peer_config,
                )
            )
        #: Gossip federation (None under the legacy keepalive plane).
        self.federation: Optional[Federation] = None
        if config.gossip is not None:
            self.federation = Federation(
                self.network, self.brokers, config.gossip
            )
        #: Standby broker + failover supervision (recovery runs only).
        self.standby: Optional[Broker] = None
        self.failover: Optional[FailoverDirector] = None
        if with_standby:
            self.standby = Broker(
                self.network,
                self.testbed.standby_hostname,
                ids,
                name="standby",
                config=config.peer_config,
            )
            self.network.enable_flow_partition_gating()
        #: Fault runtimes installed on this session (the configured
        #: plan plus any a scenario installs itself); finalized —
        #: open episodes censored — when :meth:`run` returns.
        self.fault_runtimes: list[FaultRuntime] = []
        self.clients: Dict[str, SimpleClient] = {
            label: SimpleClient(
                self.network,
                self.testbed.sc_hostname(label),
                ids,
                name=label,
                config=config.peer_config,
            )
            for label in self.testbed.sc_labels()
        }
        self._connected = False

    # -- lifecycle -----------------------------------------------------------

    def connect_all(self):
        """Generator: join every SimpleClient to the broker.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        With recovery configured this also starts failover supervision:
        the primary replicates state to the standby, the standby probes
        the primary, and every client arms the standby as its backup
        broker.
        """
        if self.federation is not None:
            fed = self.federation
            advs = fed.broker_advs()
            for client in self.clients.values():
                fed.enroll(client)
            for client in self.clients.values():
                yield from self.sim.call(
                    client.join_federated(fed.shard_map, advs)
                )
            fed.start_gossip()
        else:
            badv = self.broker.advertisement()
            for client in self.clients.values():
                yield from self.sim.call(client.connect(badv))
        recovery = self.config.recovery
        if self.standby is not None and recovery is not None:
            if self.federation is not None:
                # The standby watches the primary through gossip too,
                # so a partitioned-but-alive primary (still reachable
                # on indirect SWIM paths) is not double-promoted.
                from repro.gossip.swim import SwimAgent

                agent = SwimAgent(
                    self.standby,
                    self.config.gossip,
                    probe_interval_s=BROKER_PROBE_INTERVAL_S,
                    track_unknown=True,
                )
                agent.track(self.broker.name, self.broker.host.hostname)
                agent.probe_ring = [self.broker.name]
                # Edge peers serve as ping-req proxies: when a partial
                # partition cuts the standby's own probes, an indirect
                # SWIM path through a client can still confirm the
                # primary — that confirmation is what arms the veto.
                for client in self.clients.values():
                    agent.track(client.name, client.host.hostname)
                self.standby.gossip_agent = agent
                agent.start()
            self.failover = FailoverDirector(
                self.broker, self.standby, recovery
            )
            self.failover.start()
            if self.federation is None:
                sadv = self.standby.advertisement()
                for client in self.clients.values():
                    client.enable_failover(
                        [sadv],
                        check_interval_s=FAILOVER_CHECK_INTERVAL_S,
                        ping_timeout_s=FAILOVER_PING_TIMEOUT_S,
                    )
        self._connected = True

    def run(self, process_fn: Callable[["Session"], object]):
        """Drive a scenario: connect all peers, then run the process
        built by ``process_fn(session)`` to completion.  Returns its
        value."""

        def main(session: "Session"):
            yield from session.sim.call(session.connect_all())
            if session.config.fault_plan is not None:
                # Base time = overlay connected: profile timelines are
                # relative to the moment the deployment is live.
                session.config.fault_plan.install(session)
            result = yield from session.sim.call(process_fn(session))
            return result

        p = self.sim.process(main(self))
        try:
            self.sim.run(until=p)
        finally:
            for runtime in self.fault_runtimes:
                runtime.finalize()
            # Publish kernel, flow-scheduler and message counters even
            # when the scenario fails — partial metrics beat silent
            # gaps when debugging stalls.
            self.network.flush_metrics(self.metrics)
        return p.value

    # -- conveniences ----------------------------------------------------------

    @property
    def faults(self) -> Optional[FaultRuntime]:
        """The first installed fault runtime (None when fault-free)."""
        return self.fault_runtimes[0] if self.fault_runtimes else None

    @property
    def leader_broker(self) -> Broker:
        """The broker currently acting as governor (the standby after
        a failover promotion, else the primary)."""
        if self.failover is not None:
            return self.failover.leader
        return self.broker

    def sc_labels(self) -> tuple[str, ...]:
        """SC labels in numeric order."""
        return self.testbed.sc_labels()

    def client(self, label: str) -> SimpleClient:
        """A SimpleClient by its SC label."""
        return self.clients[label]

    def candidates(self):
        """The broker's current simpleclient candidate records."""
        return self.broker.candidates(kind="simpleclient")
