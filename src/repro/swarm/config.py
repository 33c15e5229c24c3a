"""Swarming configuration.

One frozen knob bundle for the multi-source download engine
(:mod:`repro.swarm`): how many sources stream concurrently, when the
endgame duplicates the last pieces, and which sources are parked.
Passed to :class:`~repro.swarm.coordinator.SwarmCoordinator`; the
swarming experiment runs the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["SwarmConfig"]


@dataclass(frozen=True)
class SwarmConfig:
    """Knobs for multi-source (swarming) downloads."""

    #: Sources allowed to stream a part concurrently.  Also caps the
    #: unchoked-source set: a swarm may hold more sources than this,
    #: but only this many hold a streaming slot at once.  The default
    #: is deliberately below the usual source count: the access-link
    #: scheduler gives every concurrent flow an equal downlink share
    #: with no redistribution, so streaming the origin plus the
    #: best-measured replicas beats spreading the downlink across
    #: mediocre ones.
    unchoke_slots: int = 3
    #: Keep the first source the selection callback returns (the
    #: origin copy) permanently unchoked.  Observed throughput cannot
    #: rank capability above the equal share every flow is squeezed
    #: to, so an unpinned origin can lose its slot to a lossier
    #: replica that happened to measure the same.
    pin_origin: bool = True
    #: Endgame: maximum concurrent fetchers per unproven piece
    #: (1 = the original request only, i.e. endgame disabled).
    endgame_duplicates: int = 2
    #: Choke reevaluations between optimistic-unchoke rotations.
    optimistic_every: int = 4
    #: Park a measured source whose observed throughput falls below
    #: this fraction of the best source's rate: the access-link
    #: scheduler splits the destination downlink equally per flow with
    #: no redistribution, so a source that cannot fill its share
    #: actively shrinks aggregate throughput (0.0 = never park).
    drop_below: float = 0.5
    #: Break rarest-first availability ties with a per-download seeded
    #: permutation (False = ascending part index).
    seeded_tiebreak: bool = True

    def __post_init__(self) -> None:
        if self.unchoke_slots < 1:
            raise ConfigError("unchoke_slots must be >= 1")
        if self.endgame_duplicates < 1:
            raise ConfigError("endgame_duplicates must be >= 1")
        if self.optimistic_every < 1:
            raise ConfigError("optimistic_every must be >= 1")
        if not 0.0 <= self.drop_below < 1.0:
            raise ConfigError("drop_below must be in [0.0, 1.0)")
