"""Stochastic fault processes.

A :class:`FaultProcess` expands into timed fault events at plan
installation, drawing every dwell/duration from a *named* substream of
the session's :class:`~repro.simnet.rng.RandomStreams` tree — the same
seed therefore yields the same fault timeline, bit for bit, which is
what makes chaos experiments repeatable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.faults.injectors import Fault, NodeCrash, fault_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultRuntime

__all__ = [
    "FaultProcess",
    "ExponentialChurn",
    "RandomWindows",
    "PROCESS_TYPES",
    "process_from_dict",
]

#: Registry: process ``kind`` -> class (for plan (de)serialization).
PROCESS_TYPES: Dict[str, type] = {}


def _register(cls):
    PROCESS_TYPES[cls.kind] = cls
    return cls


class FaultProcess:
    """Base process.  Subclasses are frozen dataclasses."""

    kind = "process"

    def events(self, rt: "FaultRuntime") -> List[Tuple[float, Fault]]:
        """Expand into ``(t_rel, fault)`` events (relative to the
        plan's installation base)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"kind": self.kind, **dataclasses.asdict(self)}

    @classmethod
    def _from_fields(cls, data: dict) -> "FaultProcess":
        return cls(**data)


def process_from_dict(data: dict) -> FaultProcess:
    """Inverse of :meth:`FaultProcess.to_dict`."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = PROCESS_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown fault process kind {kind!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {kind} keys: {sorted(unknown)}")
    return cls._from_fields(data)


@_register
@dataclass(frozen=True)
class ExponentialChurn(FaultProcess):
    """Alternating exponential up/down dwell per target.

    The churn experiment's process: each target stays up for
    Exp(``mean_up_s``), crashes for max(Exp(``mean_down_s``),
    ``min_down_s``), and repeats until ``horizon_s``.  Each target
    draws from its own substream ``churn/{target}``.
    """

    targets: Tuple[str, ...]
    mean_up_s: float = 400.0
    mean_down_s: float = 120.0
    horizon_s: float = 3000.0
    min_down_s: float = 1.0

    kind = "exponential_churn"

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ConfigError("churn needs at least one target")
        for name in ("mean_up_s", "mean_down_s", "horizon_s", "min_down_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")

    def events(self, rt: "FaultRuntime") -> List[Tuple[float, Fault]]:
        out: List[Tuple[float, Fault]] = []
        for target in self.targets:
            rng = rt.streams.get(f"churn/{target}")
            t = float(rng.exponential(self.mean_up_s))
            while t < self.horizon_s:
                down = float(rng.exponential(self.mean_down_s))
                duration = max(down, self.min_down_s)
                out.append((t, NodeCrash(target=target, duration_s=duration)))
                t = t + duration + float(rng.exponential(self.mean_up_s))
        return out


@_register
@dataclass(frozen=True)
class RandomWindows(FaultProcess):
    """Recurring windows of one fault with exponential gaps/durations.

    Fires ``fault`` (with its ``duration_s`` replaced by
    max(Exp(``mean_duration_s``), ``min_duration_s``)) after each
    Exp(``mean_gap_s``) quiet gap, until ``horizon_s``.
    """

    fault: Fault
    mean_gap_s: float = 120.0
    mean_duration_s: float = 60.0
    horizon_s: float = 3600.0
    min_duration_s: float = 1.0
    stream_name: str = "faults/windows"

    kind = "random_windows"

    def __post_init__(self) -> None:
        for name in ("mean_gap_s", "mean_duration_s", "horizon_s",
                     "min_duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "fault": self.fault.to_dict()}
        for name in ("mean_gap_s", "mean_duration_s", "horizon_s",
                     "min_duration_s", "stream_name"):
            out[name] = getattr(self, name)
        return out

    @classmethod
    def _from_fields(cls, data: dict) -> "RandomWindows":
        data = dict(data)
        data["fault"] = fault_from_dict(data["fault"])
        return cls(**data)

    def events(self, rt: "FaultRuntime") -> List[Tuple[float, Fault]]:
        rng = rt.streams.get(self.stream_name)
        out: List[Tuple[float, Fault]] = []
        t = float(rng.exponential(self.mean_gap_s))
        while t < self.horizon_s:
            duration = max(
                float(rng.exponential(self.mean_duration_s)),
                self.min_duration_s,
            )
            out.append(
                (t, dataclasses.replace(self.fault, duration_s=duration))
            )
            t = t + duration + float(rng.exponential(self.mean_gap_s))
        return out
