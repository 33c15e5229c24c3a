"""JXTA-style identifiers.

JXTA names peers, pipes and groups with URN-like ids
(``urn:jxta:uuid-...``).  We reproduce the shape with deterministic
ids: an :class:`IdFactory` hands out ids derived from a seed counter,
so a simulation run is fully reproducible and ids are stable across
repetitions of the same scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["PeerId", "PipeId", "GroupId", "TaskId", "TransferId", "IdFactory"]


@dataclass(frozen=True, order=True)
class _BaseId:
    """Common behaviour of all id types: a URN string."""

    urn: str

    def __post_init__(self) -> None:
        if not self.urn.startswith("urn:jxta:"):
            raise ValueError(f"malformed id {self.urn!r}")

    @property
    def short(self) -> str:
        """Last 12 hex chars — convenient for logs."""
        return self.urn[-12:]

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


class PipeId(_BaseId):
    """Identifier of a pipe."""


class GroupId(_BaseId):
    """Identifier of a peergroup."""


class TaskId(_BaseId):
    """Identifier of a submitted task."""


class TransferId(_BaseId):
    """Identifier of a file transfer."""


_KIND_TAG = {
    PeerId: "peer",
    PipeId: "pipe",
    GroupId: "group",
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

    def pipe_id(self, hint: str = "") -> PipeId:
        """Mint a new :class:`PipeId`."""
        return PipeId(self._mint(PipeId, hint))

    def group_id(self, hint: str = "") -> GroupId:
        """Mint a new :class:`GroupId`."""
        return GroupId(self._mint(GroupId, hint))

    def task_id(self, hint: str = "") -> TaskId:
        """Mint a new :class:`TaskId`."""
        return TaskId(self._mint(TaskId, hint))

    def transfer_id(self, hint: str = "") -> TransferId:
        """Mint a new :class:`TransferId`."""
        return TransferId(self._mint(TransferId, hint))
