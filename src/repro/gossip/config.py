"""Gossip subsystem configuration.

One frozen dataclass carries the SWIM detector timings a deployment
tunes, with the same JSON round-trip discipline as
:class:`~repro.recovery.config.RecoveryConfig`: explicit ``to_dict`` /
``from_dict`` so saved experiment configs replay bit-identically.
Fan-outs, rumor budgets, graph degree and the federation's retry
budgets are module constants beside their readers
(:mod:`repro.gossip.swim`, :mod:`repro.gossip.federation`,
:mod:`repro.overlay.client`, :mod:`repro.overlay.broker`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["GossipConfig"]


@dataclass(frozen=True)
class GossipConfig:
    """Tunables for SWIM liveness."""

    #: Period of one peer probe round (seconds).  SWIM's detection
    #: latency is a small multiple of this.
    probe_interval_s: float = 30.0
    #: Direct-probe ack deadline before indirect probing starts.
    probe_timeout_s: float = 10.0
    #: Suspect→dead timeout: how long a suspicion may stand without a
    #: refutation before the member is declared dead.
    suspect_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        for name in ("probe_interval_s", "probe_timeout_s", "suspect_timeout_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GossipConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = [k for k in data if k not in known]
        if unknown:
            raise ConfigError(f"unknown gossip config keys: {sorted(unknown)}")
        return cls(**data)
