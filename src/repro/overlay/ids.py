"""JXTA-style identifiers.

JXTA names its entities with URN-like ids (``urn:jxta:uuid-...``).
We reproduce the shape for peers, tasks and transfers with
deterministic ids: an :class:`IdFactory` hands out ids derived from a
seed counter, so a simulation run is fully reproducible and ids are
stable across repetitions of the same scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["PeerId", "TaskId", "TransferId", "IdFactory"]


@dataclass(frozen=True, order=True)
class _BaseId:
    """Common behaviour of all id types: a URN string."""

    urn: str

    def __post_init__(self) -> None:
        if not self.urn.startswith("urn:jxta:"):
            raise ValueError(f"malformed id {self.urn!r}")

    def __str__(self) -> str:
        return self.urn

    def __hash__(self) -> int:
        # Kept by ``dataclass`` over its generated ``hash((urn,))``:
        # every beacon looks its record up by PeerId, and the str hash
        # is cached on the urn.  Equal ids have equal urns, so this is
        # consistent with ``__eq__``.
        return hash(self.urn)


class PeerId(_BaseId):
    """Identifier of a peer."""


class TaskId(_BaseId):
    """Identifier of a submitted task."""


class TransferId(_BaseId):
    """Identifier of a file transfer."""


_KIND_TAG = {
    PeerId: "peer",
    TaskId: "task",
    TransferId: "xfer",
}


class IdFactory:
    """Deterministic id minting.

    Ids are ``urn:jxta:uuid-<sha1(namespace:kind:counter)[:32]>``; two
    factories with the same namespace mint identical sequences.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._counters: dict[str, int] = {}

    def _mint(self, kind: type, hint: str = "") -> str:
        tag = _KIND_TAG[kind]
        n = self._counters.get(tag, 0)
        self._counters[tag] = n + 1
        digest = hashlib.sha1(
            f"{self.namespace}:{tag}:{hint}:{n}".encode("utf-8")
        ).hexdigest()[:32]
        return f"urn:jxta:uuid-{digest}"

    def peer_id(self, hint: str = "") -> PeerId:
        """Mint a new :class:`PeerId` (``hint`` e.g. the hostname)."""
        return PeerId(self._mint(PeerId, hint))

    def task_id(self, hint: str = "") -> TaskId:
        """Mint a new :class:`TaskId`."""
        return TaskId(self._mint(TaskId, hint))

    def transfer_id(self, hint: str = "") -> TransferId:
        """Mint a new :class:`TransferId`."""
        return TransferId(self._mint(TransferId, hint))
