"""Discrete-event network substrate.

This subpackage replaces the paper's live PlanetLab deployment with a
calibrated simulation: a process-based DES kernel (:mod:`.kernel`),
deterministic random substreams (:mod:`.rng`), latency / bandwidth /
loss models, a topology description, a live transport layer with
flow-level fair sharing, structured tracing, and the PlanetLab Table 1
catalog with SC1–SC8 calibration (:mod:`.planetlab`).
"""

from repro.simnet.bandwidth import ContendedBandwidth
from repro.simnet.kernel import (
    AllOf,
    Event,
    Process,
    Resource,
    Simulator,
    Timeout,
)
from repro.simnet.latency import (
    LatencyModel,
    LognormalLatency,
    SpikyLatency,
)
from repro.simnet.loss import NoLoss, PerUnitLoss
from repro.simnet.planetlab import (
    BROKER_HOSTNAME,
    FIGURE2_PETITION_TARGETS,
    SIMPLECLIENTS,
    TABLE1_HOSTNAMES,
    PlanetLabTestbed,
    build_testbed,
)
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.trace import TraceEvent
from repro.simnet.transport import (
    Datagram,
    Flow,
    FlowScheduler,
    Host,
    Network,
    TransferReport,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Resource",
    "RandomStreams",
    "LatencyModel",
    "LognormalLatency",
    "SpikyLatency",
    "ContendedBandwidth",
    "NoLoss",
    "PerUnitLoss",
    "Region",
    "Site",
    "NodeSpec",
    "Topology",
    "Network",
    "Host",
    "Datagram",
    "Flow",
    "FlowScheduler",
    "TransferReport",
    "TraceEvent",
    "PlanetLabTestbed",
    "build_testbed",
    "BROKER_HOSTNAME",
    "SIMPLECLIENTS",
    "TABLE1_HOSTNAMES",
    "FIGURE2_PETITION_TARGETS",
]
