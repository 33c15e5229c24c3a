"""Deterministic named random substreams.

Every stochastic component in the simulator draws from its own named
substream of a single master seed, so that

* runs with the same seed are bit-for-bit reproducible, and
* adding a new random component does not perturb the draws of existing
  ones (stream independence by name, not by draw order).

Stream ``name`` of master seed ``s`` is the PCG64 generator that numpy
builds from ``SeedSequence(s, spawn_key=(crc32(name),))``, where
``crc32`` of the UTF-8 name keeps the key independent of Python's
randomized str hash.  The module runs that seeding in plain integer
arithmetic, in two steps:

* :class:`RandomStreams` mixes the seed once: its 32-bit words, padded
  to the 4-word entropy pool, are hashmixed into the pool and
  cross-mixed, and any words beyond the pool are mixed in after.  The
  pool and the running hash constant are kept on the instance.
* Each stream mixes its spawn word into a copy of that pool and
  produces the four 64-bit words of ``generate_state(4, uint64)``.
  ``np.random.PCG64`` reads them from a slotted ``ISeedSequence`` that
  drops them once read.

So no stream builds or keeps a ``SeedSequence``: one would cost an
entropy pool array per stream, kept for as long as its generator
lives, and its seeding is the slow part of building a generator.  The
constants and the order of the mixing steps are numpy's, so every
stream's state and draws are those of the ``SeedSequence`` route;
``tests/simnet/test_rng.py`` checks them against numpy's own
``SeedSequence``, which is now only the reference.

Per-host scalar draws (loss, handling overhead, contention, CPU share)
go through :meth:`RandomStreams.draws` instead of :meth:`RandomStreams.get`:
a :class:`BlockDraws` source seeds its generator on its first draw and
serves values from blocks of ``gen.<method>(..., size=k)``.  numpy
computes each element of a block with the same routine as a scalar
call, so a source yields exactly the values the scalar calls would.
A block is buffered as an ``array('d')``, 8 bytes per value.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

#: The buffer of every source that has not drawn yet; never written.
_NO_DRAWS = array("d")

# numpy.random.SeedSequence's pool size and mixing constants.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED

#: ``generate_state``'s hash constant before each of the eight 32-bit
#: output words, and after the last: ``INIT_B * MULT_B**i``.
_STATE_HASH = tuple(
    _INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(2 * _POOL_SIZE + 1)
)

#: A master seed mixed into the entropy pool: the four pool words and
#: the hash constant the next hashmix starts from.
_Seed = Tuple[int, int, int, int, int]


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    """numpy's ``hashmix``: the mixed value and the next hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _mix_seed(seed: int) -> _Seed:
    """Mix ``seed``'s run entropy into the pool, as ``SeedSequence``
    does before it reaches the spawn key."""
    words: List[int] = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # A spawned sequence pads its run entropy to the pool size.
    words += [0] * (_POOL_SIZE - len(words))
    pool = []
    h = _INIT_A
    for word in words[:_POOL_SIZE]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    return (*pool, h)


class _StateWords(ISeedSequence):
    """Hands ``PCG64`` its four state words once, then holds nothing."""

    __slots__ = ("_words",)

    def __init__(self, words: List[int]) -> None:
        self._words: Optional[List[int]] = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words, self._words = self._words, None
        return np.array(words, dtype=np.uint64)


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

    def __init__(self, name: str, seed: _Seed) -> None:
        self.name = name
        self._seed = seed
        self._gen: Optional[np.random.Generator] = None
        self._buf = _NO_DRAWS
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
        self._buf = array("d", block.tobytes())
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


def _generator(seed: _Seed, name: str) -> np.random.Generator:
    """The generator of stream ``name`` under a mixed master seed."""
    *pool, h = seed
    spawn = zlib.crc32(name.encode("utf-8"))
    for dst in range(_POOL_SIZE):
        value, h = _hashmix(spawn, h)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight 32-bit words from the pool
    # cycled twice, joined little-endian in pairs.
    hs = _STATE_HASH
    state = []
    for i in (0, 2, 4, 6):
        lo = (pool[i & 3] ^ hs[i]) * hs[i + 1] & _MASK32
        hi = (pool[i + 1 & 3] ^ hs[i + 1]) * hs[i + 2] & _MASK32
        state.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return np.random.Generator(np.random.PCG64(_StateWords(state)))


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
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self._mixed = _mix_seed(seed)
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
            gen = self._streams[name] = _generator(self._mixed, name)
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
            src = self._draws[name] = BlockDraws(name, self._mixed)
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
