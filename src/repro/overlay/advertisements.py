"""JXTA-style advertisements.

An advertisement is a published, expiring description of a resource:
peers and resource (module) capabilities.  The
discovery service (:mod:`repro.overlay.discovery`) indexes, serves and
expires them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.overlay.ids import PeerId

__all__ = [
    "Advertisement",
    "PeerAdvertisement",
    "ResourceAdvertisement",
    "DEFAULT_LIFETIME_S",
]

#: Default advertisement lifetime (JXTA defaults to hours; we use 2 h).
DEFAULT_LIFETIME_S = 2.0 * 3600.0


@dataclass(frozen=True)
class Advertisement:
    """Base advertisement: who published it and when it expires."""

    published_at: float
    lifetime_s: float = DEFAULT_LIFETIME_S

    @property
    def expires_at(self) -> float:
        """Absolute expiry time."""
        return self.published_at + self.lifetime_s

    def is_expired(self, now: float) -> bool:
        """True once ``now`` passes the expiry time."""
        return now >= self.expires_at


@dataclass(frozen=True)
class PeerAdvertisement(Advertisement):
    """Announces a peer: identity, address and static capabilities."""

    peer_id: PeerId = None  # type: ignore[assignment]
    name: str = ""
    hostname: str = ""
    #: Relative CPU speed claimed by the peer (normalized ops/s).
    cpu_speed: float = 1.0
    #: Peer kind: "simpleclient", "client" or "broker".
    kind: str = "simpleclient"

    def __post_init__(self) -> None:
        if self.peer_id is None:
            raise ValueError("peer advertisement needs a peer_id")
        if self.kind not in ("simpleclient", "client", "broker"):
            raise ValueError(f"unknown peer kind {self.kind!r}")


@dataclass(frozen=True)
class ResourceAdvertisement(Advertisement):
    """Announces a shareable resource on a peer.

    Resources cover both shared files (``kind='file'``, attrs carry
    ``size_bits``) and executable services (``kind='service'``).
    """

    peer_id: PeerId = None  # type: ignore[assignment]
    kind: str = "file"
    name: str = ""
    attrs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.peer_id is None:
            raise ValueError("resource advertisement needs a peer_id")
        if self.kind not in ("file", "service"):
            raise ValueError(f"unknown resource kind {self.kind!r}")
