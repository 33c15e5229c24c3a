"""Typed fault injectors.

Each injector is a small frozen dataclass describing *what* breaks;
*when* is the :class:`~repro.faults.plan.FaultPlan`'s job.  An
injector's :meth:`~Fault.apply` mutates the live simulation through a
:class:`~repro.faults.plan.FaultRuntime` (which resolves symbolic
targets to hosts) and returns an undo callable; the runtime invokes
the undo when the fault's ``duration_s`` window closes.

Targets are symbolic so plans serialize and survive testbed changes:

* an SC label (``"SC7"``) or a raw hostname;
* ``"broker"`` — the session's broker host;
* ``"simpleclients"`` — every SimpleClient;
* ``"region:<name>"`` — every node in a
  :class:`~repro.simnet.topology.Region` (e.g. ``region:central-eu``);
* a tuple of any of the above.

Injectors only touch documented seams of the simnet/overlay layers
(:meth:`Host.crash`, the :class:`Host` fault multipliers,
:meth:`Network.add_partition`), so every protocol failure they cause
is one the protocols already know how to survive: timeouts, retries,
liveness lapses — never an un-modelled error path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING, Tuple, Union

from repro.errors import ConfigError
from repro.simnet.loss import PerUnitLoss

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultRuntime

__all__ = [
    "Fault",
    "NodeCrash",
    "NodeSlowdown",
    "LinkDegrade",
    "LossBurst",
    "Partition",
    "BrokerOutage",
    "FAULT_TYPES",
    "fault_from_dict",
]

#: An undo callable returned by :meth:`Fault.apply` (None = nothing to
#: revert).
Undo = Optional[Callable[[], None]]

#: Target spec: one symbolic name or a tuple of them.
TargetSpec = Union[str, Tuple[str, ...]]

#: Registry: fault ``kind`` -> class (for plan (de)serialization).
FAULT_TYPES: Dict[str, type] = {}


def _register(cls):
    FAULT_TYPES[cls.kind] = cls
    return cls


class Fault:
    """Base injector.  Subclasses are frozen dataclasses."""

    #: Type tag used in serialized plans.
    kind = "fault"

    def apply(self, rt: "FaultRuntime") -> Undo:
        """Inject the fault; return an undo callable (or None)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short target label for traces/episodes."""
        target = getattr(self, "target", None)
        if target is None:
            return self.kind
        if isinstance(target, tuple):
            return ",".join(target)
        return str(target)

    def to_dict(self) -> dict:
        """JSON-serializable representation (round-trips via
        :func:`fault_from_dict`)."""
        return {"kind": self.kind, **dataclasses.asdict(self)}

    def _check_duration(self) -> None:
        duration = getattr(self, "duration_s", None)
        if duration is not None and duration <= 0:
            raise ConfigError(f"duration_s must be > 0, got {duration}")


def fault_from_dict(data: dict) -> Fault:
    """Inverse of :meth:`Fault.to_dict`."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = FAULT_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown fault kind {kind!r}")
    for name, value in data.items():
        if isinstance(value, list):
            data[name] = tuple(value)
    return cls(**data)


@_register
@dataclass(frozen=True)
class NodeCrash(Fault):
    """Take the target host(s) down (all inbound traffic dropped).

    With ``duration_s`` the node recovers automatically; without, it
    stays down for the rest of the run.
    """

    target: TargetSpec
    duration_s: Optional[float] = None

    kind = "node_crash"

    def __post_init__(self) -> None:
        self._check_duration()

    def apply(self, rt: "FaultRuntime") -> Undo:
        hosts = rt.resolve(self.target)
        for h in hosts:
            h.crash()

        def undo() -> None:
            for h in hosts:
                h.recover()

        return undo


@_register
@dataclass(frozen=True)
class NodeSlowdown(Fault):
    """CPU-factor straggler: a synthetic SC7.

    Stretches the target's compute durations and its message-handling
    overhead by ``factor`` — the heavy-tailed petition-reception times
    Figure 2 measures get ``factor`` times heavier.
    """

    target: TargetSpec
    factor: float = 10.0
    duration_s: Optional[float] = None

    kind = "node_slowdown"

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        self._check_duration()

    def apply(self, rt: "FaultRuntime") -> Undo:
        hosts = rt.resolve(self.target)
        saved = [h.slow_factor for h in hosts]
        for h in hosts:
            h.set_slowdown(self.factor)

        def undo() -> None:
            for h, prev in zip(hosts, saved):
                h.slow_factor = prev

        return undo


@_register
@dataclass(frozen=True)
class LinkDegrade(Fault):
    """Scale the target's access links: bandwidth and/or latency.

    ``bw_factor`` multiplies both access capacities (0.5 = half rate);
    ``latency_factor`` multiplies the base path latency of messages
    into/out of the target.  Active flows are re-rated immediately.
    """

    target: TargetSpec
    bw_factor: float = 1.0
    latency_factor: float = 1.0
    duration_s: Optional[float] = None

    kind = "link_degrade"

    def __post_init__(self) -> None:
        if self.bw_factor <= 0 or self.latency_factor <= 0:
            raise ConfigError(
                f"link factors must be > 0, got "
                f"({self.bw_factor}, {self.latency_factor})"
            )
        self._check_duration()

    def apply(self, rt: "FaultRuntime") -> Undo:
        hosts = rt.resolve(self.target)
        saved = [(h.link_bw_factor, h.link_latency_factor) for h in hosts]
        for h in hosts:
            h.set_link_factors(self.bw_factor, self.latency_factor)
        rt.network.flows.resample()

        def undo() -> None:
            for h, (bw, lat) in zip(hosts, saved):
                h.link_bw_factor = bw
                h.link_latency_factor = lat
            rt.network.flows.resample()

        return undo


@_register
@dataclass(frozen=True)
class LossBurst(Fault):
    """Elevated per-Mb loss on the target for the window's duration.

    Composes with the node's calibrated loss model; the burst draws
    from a dedicated substream of the simnet RNG tree, so runs stay
    bit-reproducible.
    """

    target: TargetSpec
    per_mb_loss: float = 0.2
    duration_s: Optional[float] = None

    kind = "loss_burst"

    def __post_init__(self) -> None:
        if not 0 < self.per_mb_loss < 1:
            raise ConfigError(
                f"per_mb_loss must be in (0, 1), got {self.per_mb_loss}"
            )
        self._check_duration()

    def apply(self, rt: "FaultRuntime") -> Undo:
        hosts = rt.resolve(self.target)
        saved = [h.extra_loss for h in hosts]
        for h in hosts:
            h.set_extra_loss(
                PerUnitLoss(
                    self.per_mb_loss,
                    rt.streams.draws(f"faults/loss/{h.hostname}"),
                )
            )

        def undo() -> None:
            for h, prev in zip(hosts, saved):
                h.extra_loss = prev

        return undo


@_register
@dataclass(frozen=True)
class Partition(Fault):
    """Netsplit: drop everything between two host groups.

    ``group_b=None`` partitions ``group_a`` from the rest of the
    topology.  Units crossing the cut count as lost (timeouts, not
    errors) — keepalives lapse, so the broker's liveness window is the
    overlay's view of the split.
    """

    group_a: TargetSpec
    group_b: Optional[TargetSpec] = None
    duration_s: Optional[float] = None

    kind = "partition"

    def __post_init__(self) -> None:
        self._check_duration()

    def describe(self) -> str:
        a = ",".join(self.group_a) if isinstance(self.group_a, tuple) else self.group_a
        return f"{a}|rest" if self.group_b is None else f"{a}|..."

    def apply(self, rt: "FaultRuntime") -> Undo:
        a = rt.resolve_names(self.group_a)
        if self.group_b is not None:
            b = rt.resolve_names(self.group_b)
        else:
            in_a = frozenset(a)
            b = tuple(
                h for h in rt.network.topology.hostnames() if h not in in_a
            )
        token = rt.network.add_partition(a, b)
        return lambda: rt.network.remove_partition(token)


@_register
@dataclass(frozen=True)
class BrokerOutage(Fault):
    """Crash the session's broker host.

    While down the broker drops keepalives, petitions and in-flight
    bulk units; with ``duration_s`` it recovers automatically.
    """

    duration_s: Optional[float] = None

    kind = "broker_outage"

    def __post_init__(self) -> None:
        self._check_duration()

    def describe(self) -> str:
        return "broker"

    def apply(self, rt: "FaultRuntime") -> Undo:
        host = rt.resolve("broker")[0]
        host.crash()
        return host.recover
