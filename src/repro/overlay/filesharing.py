"""File sharing: publish, discover, and fetch shared files.

The overlay's primitives include "file/data sharing, discovery and
transmission" (paper §3).  This service composes them into the full
P2P flow:

* **share** — register a file in the local catalog and publish a
  resource advertisement at the broker;
* **fetch** — discover which peers share a named file, pick a provider
  (first by default; any chooser — e.g. one backed by a selection
  model — can be plugged in), ask it to transmit, and wait for the
  inbound transfer to complete.

The provider pushes the file through the ordinary measured transfer
protocol, so fetches inherit retransmission, statistics and selection
behaviour for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, TYPE_CHECKING

from repro.errors import OverlayError
from repro.overlay.advertisements import (
    PeerAdvertisement,
    ResourceAdvertisement,
)
from repro.overlay.messages import FileRequest, FileRequestAck
from repro.simnet.transport import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.peer import PeerNode

__all__ = ["SharedFile", "FileSharingService", "FileNotShared"]


class FileNotShared(OverlayError):
    """The requested file is not in any reachable catalog."""


@dataclass(frozen=True)
class SharedFile:
    """One catalog entry."""

    name: str
    size_bits: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shared file needs a name")
        if self.size_bits <= 0:
            raise ValueError("shared file needs a positive size")


class FileSharingService:
    """Provider and requester sides of file sharing for one peer."""

    def __init__(self, peer: "PeerNode") -> None:
        self.peer = peer
        self.sim = peer.sim
        self.catalog: Dict[str, SharedFile] = {}

    # ------------------------------------------------------------------
    # Provider side
    # ------------------------------------------------------------------

    def share(self, name: str, size_bits: float) -> ResourceAdvertisement:
        """Register a file locally and advertise it at the broker."""
        entry = SharedFile(name=name, size_bits=size_bits)
        self.catalog[name] = entry
        adv = ResourceAdvertisement(
            published_at=self.sim.now,
            peer_id=self.peer.peer_id,
            kind="file",
            name=name,
            attrs={
                "size_bits": size_bits,
                "hostname": self.peer.host.hostname,
            },
        )
        self.peer.discovery.publish(adv)
        return adv

    def handle_request(self, dgram: Datagram) -> None:
        """Answer a fetch: ack, then push the file to the requester."""
        req: FileRequest = dgram.payload
        peer = self.peer
        src_host = peer.network.host(dgram.src)
        entry = self.catalog.get(req.filename)
        if entry is None:
            peer.host.send(
                src_host,
                FileRequestAck(
                    filename=req.filename, accepted=False, reason="not shared"
                ),
                light=True,
            )
            return
        peer.host.send(
            src_host,
            FileRequestAck(
                filename=req.filename, accepted=True, size_bits=entry.size_bits
            ),
            light=True,
        )
        requester_adv = PeerAdvertisement(
            published_at=self.sim.now,
            peer_id=req.requester,
            name=str(req.requester),
            hostname=req.requester_hostname,
        )

        def push():
            yield from self.sim.call(
                peer.transfers.send_file(
                    requester_adv,
                    filename=req.filename,
                    total_bits=entry.size_bits,
                    n_parts=req.n_parts,
                )
            )

        self.sim.process(push(), name=f"share:{req.filename}@{peer.name}")

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------

    def fetch(
        self,
        name: str,
        choose: Optional[
            Callable[[Sequence[ResourceAdvertisement]], ResourceAdvertisement]
        ] = None,
        n_parts: int = 4,
    ):
        """Generator: locate and download a shared file.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        ``choose`` picks among the provider advertisements (default:
        the first); plug in a selection-model-backed chooser to fetch
        from the best provider.  Returns the provider's
        :class:`ResourceAdvertisement`.  Raises :class:`FileNotShared`
        when discovery finds no provider, or the provider refuses.
        """
        peer = self.peer
        advs = yield from self.sim.call(
            peer.discovery.query("resource", {"kind": "file", "name": name})
        )
        providers = [a for a in advs if a.attrs.get("hostname")]
        if not providers:
            raise FileNotShared(f"no provider advertises {name!r}")
        chosen = choose(providers) if choose is not None else providers[0]
        provider_host = peer.network.host(chosen.attrs["hostname"])

        # Register for the inbound completion *before* asking, so the
        # transfer can never finish unobserved.
        arrival = peer.transfers.wait_for_file(name)
        ack: FileRequestAck = yield from self.sim.call(
            peer.request(
                provider_host,
                FileRequest(
                    requester=peer.peer_id,
                    requester_hostname=peer.host.hostname,
                    filename=name,
                    n_parts=n_parts,
                ),
                ("file-req", name),
                light=True,
            )
        )
        if not ack.accepted:
            peer.transfers.cancel_wait_for_file(name, arrival)
            raise FileNotShared(f"provider refused {name!r}: {ack.reason}")
        yield arrival
        return chosen
