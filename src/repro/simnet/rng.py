"""Deterministic named random substreams.

Every stochastic component in the simulator draws from its own named
substream of a single master seed, so that

* runs with the same seed are bit-for-bit reproducible, and
* adding a new random component does not perturb the draws of existing
  ones (stream independence by name, not by draw order).

Streams are spawned with :class:`numpy.random.Generator` seeded via
``SeedSequence(master, spawn_key=hash(name))`` semantics: we derive a
child ``SeedSequence`` from the master seed and the UTF-8 bytes of the
stream name.

Per-host scalar draws (loss, handling overhead, contention, CPU share)
go through :meth:`RandomStreams.draws` instead of :meth:`RandomStreams.get`:
a :class:`BlockDraws` source seeds its generator on its first draw and
serves values from blocks of ``gen.<method>(..., size=k)``.  numpy
computes each element of a block with the same routine as a scalar
call, so a source yields exactly the values the scalar calls would.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import SimulationError

__all__ = ["BlockDraws", "Draws", "RandomStreams", "DRAW_BLOCK_CAP"]

#: Largest block a :class:`BlockDraws` source draws at once.  Blocks
#: start at one value and double up to this cap, so a stream drawn a
#: handful of times buffers a handful of values and a busy one pays
#: the generator call once per ``DRAW_BLOCK_CAP`` draws.  Every
#: stream of a long run reaches the cap, so it also bounds the
#: buffered floats per host.
DRAW_BLOCK_CAP = 16

_RANDOM = "random"
_UNIFORM = "uniform"
_LOGNORMAL = "lognormal"


class BlockDraws:
    """One named stream's scalar draws, served from geometric blocks.

    ``random()``, ``uniform(low, high)`` and ``lognormal(mean, sigma)``
    have the signatures of the scalar :class:`numpy.random.Generator`
    calls and return the same values in the same order.  Buffered
    values belong to one distribution and parameter set; asking for
    another while values remain buffered raises, because serving it
    would reorder the stream.  Obtain sources from
    :meth:`RandomStreams.draws`, which hands out one per name.
    """

    __slots__ = ("name", "_seed", "_gen", "_buf", "_i", "_n", "_k", "_kind", "_a", "_b")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self._seed = seed
        self._gen: Optional[np.random.Generator] = None
        self._buf: List[float] = []
        self._i = 0
        self._n = 0
        self._k = 1
        self._kind = _RANDOM
        self._a = 0.0
        self._b = 0.0

    def random(self) -> float:
        """One ``Generator.random()`` draw."""
        i = self._i
        if i < self._n:
            if self._kind is not _RANDOM:
                self._mismatch(_RANDOM, 0.0, 0.0)
            self._i = i + 1
            return self._buf[i]
        return self._refill(_RANDOM, 0.0, 0.0)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One ``Generator.uniform(low, high)`` draw."""
        i = self._i
        if i < self._n:
            if self._kind is not _UNIFORM or self._a != low or self._b != high:
                self._mismatch(_UNIFORM, low, high)
            self._i = i + 1
            return self._buf[i]
        return self._refill(_UNIFORM, low, high)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """One ``Generator.lognormal(mean, sigma)`` draw."""
        i = self._i
        if i < self._n:
            if self._kind is not _LOGNORMAL or self._a != mean or self._b != sigma:
                self._mismatch(_LOGNORMAL, mean, sigma)
            self._i = i + 1
            return self._buf[i]
        return self._refill(_LOGNORMAL, mean, sigma)

    def _refill(self, kind: str, a: float, b: float) -> float:
        gen = self._gen
        if gen is None:
            gen = self._gen = _generator(self._seed, self.name)
        k = self._k
        if kind is _RANDOM:
            block = gen.random(k)
        elif kind is _UNIFORM:
            block = gen.uniform(a, b, k)
        else:
            block = gen.lognormal(a, b, k)
        self._buf = block.tolist()
        self._n = k
        self._i = 1
        self._k = min(2 * k, DRAW_BLOCK_CAP)
        self._kind = kind
        self._a = a
        self._b = b
        return self._buf[0]

    def _mismatch(self, kind: str, a: float, b: float) -> None:
        raise SimulationError(
            f"stream {self.name!r} holds {self._n - self._i} buffered "
            f"{self._kind}({self._a:g}, {self._b:g}) draws; "
            f"{kind}({a:g}, {b:g}) would reorder it"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockDraws({self.name!r}, buffered={self._n - self._i})"


#: What the loss, latency and bandwidth models draw from: a raw
#: generator (tests) or a stream's :class:`BlockDraws` source.
Draws = Union[np.random.Generator, BlockDraws]


def _generator(seed: int, name: str) -> np.random.Generator:
    # Stable 32-bit digest of the name keeps the spawn key independent
    # of Python's randomized str hash.
    digest = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(seed, spawn_key=(digest,))
    return np.random.Generator(np.random.PCG64(seq))


class RandomStreams:
    """A factory of named, mutually independent random generators.

    Example::

        streams = RandomStreams(seed=42)
        lat = streams.get("latency/SC7")
        x = lat.normal(0.0, 1.0)

    Asking for the same name twice returns the *same* generator object,
    so consumers share stream state intentionally by sharing a name.
    A name is reached either through :meth:`get` (the generator) or
    through :meth:`draws` (its one :class:`BlockDraws` source), never
    both: a source buffers values ahead of its consumers.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._draws: Dict[str, BlockDraws] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            if name in self._draws:
                raise SimulationError(
                    f"stream {name!r} is already served by draws(); "
                    "a name is reached through get() or draws(), not both"
                )
            gen = self._streams[name] = _generator(self.seed, name)
        return gen

    def draws(self, name: str) -> BlockDraws:
        """Return the one :class:`BlockDraws` source for ``name``.

        The source seeds its generator on its first draw, so a stream
        that is never drawn from costs no generator.
        """
        src = self._draws.get(name)
        if src is None:
            if name in self._streams:
                raise SimulationError(
                    f"stream {name!r} is already served by get(); "
                    "a name is reached through get() or draws(), not both"
                )
            src = self._draws[name] = BlockDraws(name, self.seed)
        return src

    def fork(self, salt: int) -> "RandomStreams":
        """A new independent family (e.g. one per experiment repetition)."""
        return RandomStreams(seed=(self.seed * 1_000_003 + int(salt)) & 0x7FFF_FFFF)

    def names(self) -> tuple[str, ...]:
        """Names of the streams handed out so far (diagnostics)."""
        return tuple(sorted((*self._streams, *self._draws)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStreams(seed={self.seed}, "
            f"streams={len(self._streams) + len(self._draws)})"
        )
