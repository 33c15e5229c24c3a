"""Tests for deterministic named random substreams."""

from __future__ import annotations

import zlib
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults import FaultPlan, LossBurst
from repro.simnet import rng as rng_module
from repro.simnet.kernel import Simulator
from repro.simnet.rng import DRAW_BLOCK_CAP, RandomStreams
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import make_two_node_topology


class TestRandomStreams:
    def test_same_name_same_object(self):
        streams = RandomStreams(seed=1)
        assert streams.get("x") is streams.get("x")

    def test_different_names_different_draws(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_same_seed_reproducible(self):
        a = RandomStreams(seed=9).get("lat/SC7").random(16)
        b = RandomStreams(seed=9).get("lat/SC7").random(16)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random(8)
        b = RandomStreams(seed=2).get("x").random(8)
        assert not np.allclose(a, b)

    def test_stream_independent_of_creation_order(self):
        s1 = RandomStreams(seed=5)
        s1.get("first")
        seq_after = s1.get("target").random(8)

        s2 = RandomStreams(seed=5)
        seq_direct = s2.get("target").random(8)
        assert np.allclose(seq_after, seq_direct)

    def test_names_sorted(self):
        streams = RandomStreams(seed=0)
        streams.get("zeta")
        streams.get("alpha")
        assert streams.names() == ("alpha", "zeta")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RandomStreams(seed=-1)


def _reference(seed: int, name: str) -> np.random.Generator:
    """numpy's own seeding of stream ``name``: the identity target."""
    spawn_key = (zlib.crc32(name.encode("utf-8")),)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
    )


#: Master seeds across the 32-bit word split: one word, the largest
#: one-word seed, two words, three words, more run words than the
#: 4-word pool holds, any one-word seed, and seeds as
#: ``for_repetition`` derives them.
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 2**32).map(lambda k: 2**64 + k),
    st.integers(2**128, 2**300),
    st.integers(0, 2**31 - 1),
    st.builds(
        lambda seed, rep: ExperimentConfig(
            seed=seed, repetitions=rep + 1
        ).for_repetition(rep).seed,
        st.integers(0, 2**70), st.integers(0, 9),
    ),
)


#: One case per distribution a draw source serves.
IDENTITY_DRAWS = [("random", ()), ("uniform", (-3.0, 7.5)), ("lognormal", (-2.3, 0.3))]


class TestSeedingIdentity:
    """Streams are seeded exactly as numpy's ``SeedSequence`` seeds them."""

    @given(seed=SEEDS, name=st.text())
    @settings(max_examples=150, deadline=None)
    def test_get_matches_seed_sequence(self, seed, name):
        gen = RandomStreams(seed).get(name)
        ref = _reference(seed, name)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(5).tolist() == ref.random(5).tolist()

    @given(seed=SEEDS, name=st.text(), case=st.sampled_from(IDENTITY_DRAWS))
    @settings(max_examples=150, deadline=None)
    def test_draws_match_seed_sequence(self, seed, name, case):
        method, args = case
        src = RandomStreams(seed).draws(name)
        ref = _reference(seed, name)
        # Seven draws span the first three blocks (1, 2 and 4 values).
        got = [getattr(src, method)(*args) for _ in range(7)]
        assert got == [getattr(ref, method)(*args) for _ in range(7)]
        assert src._gen.bit_generator.state == ref.bit_generator.state


#: Scalar ``Generator`` calls a draw source must reproduce exactly.
DRAW_CASES = [
    ("random", ()),
    ("uniform", (0.0, 1.0)),
    ("uniform", (0.2, 1.0)),
    ("uniform", (-3.0, 7.5)),
    ("lognormal", (0.0, 1.0)),
    ("lognormal", (-2.3, 0.3)),
    ("lognormal", (1.5, 2.0)),
]


class TestBlockDraws:
    @pytest.mark.parametrize("method,args", DRAW_CASES)
    def test_values_equal_scalar_draws(self, method, args):
        # 10k values cross every refill boundary up to the cap and
        # many capped refills after it.
        src = RandomStreams(seed=4).draws("s")
        gen = RandomStreams(seed=4).get("s")
        got = [getattr(src, method)(*args) for _ in range(10_000)]
        want = [getattr(gen, method)(*args) for _ in range(10_000)]
        assert got == want
        assert all(type(x) is float for x in got[:100])

    def test_switching_distribution_at_a_block_boundary_keeps_order(self):
        # Blocks are 1, 2, 4, ...: after 1 + 2 draws the buffer is empty.
        src = RandomStreams(seed=8).draws("s")
        gen = RandomStreams(seed=8).get("s")
        got = [src.random() for _ in range(3)] + [src.uniform(2.0, 5.0) for _ in range(4)]
        want = [gen.random() for _ in range(3)] + [gen.uniform(2.0, 5.0) for _ in range(4)]
        assert got == want

    def test_block_size_capped(self):
        src = RandomStreams(seed=1).draws("s")
        for _ in range(5 * DRAW_BLOCK_CAP):
            src.random()
        assert len(src._buf) == DRAW_BLOCK_CAP

    def test_drawn_source_keeps_no_seed_sequence_and_8_bytes_per_value(self):
        src = RandomStreams(seed=1).draws("s")
        for _ in range(5 * DRAW_BLOCK_CAP):
            src.uniform(0.0, 2.0)
        seeder = src._gen.bit_generator.seed_seq
        assert not isinstance(seeder, np.random.SeedSequence)
        assert seeder._words is None  # the state words went to PCG64
        assert isinstance(src._buf, array)
        assert memoryview(src._buf).nbytes == 8 * DRAW_BLOCK_CAP

    def test_undrawn_sources_share_one_empty_buffer(self):
        streams = RandomStreams(seed=1)
        x, y = streams.draws("x"), streams.draws("y")
        assert x._buf is y._buf and len(x._buf) == 0
        x.random()
        assert len(y._buf) == 0

    def test_one_source_per_name(self):
        streams = RandomStreams(seed=1)
        assert streams.draws("x") is streams.draws("x")
        assert streams.draws("x") is not streams.draws("y")

    def test_no_generator_before_first_draw(self, monkeypatch):
        made = []
        real = rng_module._generator
        monkeypatch.setattr(
            rng_module, "_generator",
            lambda seed, name: made.append(name) or real(seed, name),
        )
        streams = RandomStreams(seed=1)
        src = streams.draws("x")
        streams.draws("y")
        assert src._gen is None and made == []
        src.lognormal(0.0, 1.0)
        assert src._gen is not None and made == ["x"]

    def test_host_construction_seeds_no_generator(self):
        streams = RandomStreams(seed=1)
        net = Network(Simulator(), make_two_node_topology(), streams=streams)
        net.host("a.example")
        assert streams._streams == {}
        assert streams.names()
        assert all(src._gen is None for src in streams._draws.values())

    def test_mixing_distributions_while_buffered_raises(self):
        src = RandomStreams(seed=1).draws("s")
        src.random()
        src.random()  # second block holds one more value
        with pytest.raises(SimulationError, match="would reorder"):
            src.uniform(0.0, 1.0)

    def test_changing_parameters_while_buffered_raises(self):
        src = RandomStreams(seed=1).draws("s")
        src.lognormal(0.0, 1.0)
        src.lognormal(0.0, 1.0)
        with pytest.raises(SimulationError, match="would reorder"):
            src.lognormal(0.0, 2.0)

    def test_get_then_draws_raises(self):
        streams = RandomStreams(seed=1)
        streams.get("x")
        with pytest.raises(SimulationError, match="not both"):
            streams.draws("x")

    def test_draws_then_get_raises(self):
        streams = RandomStreams(seed=1)
        streams.draws("x")
        with pytest.raises(SimulationError, match="not both"):
            streams.get("x")

    def test_names_lists_both_kinds(self):
        streams = RandomStreams(seed=1)
        streams.draws("b")
        streams.get("a")
        assert streams.names() == ("a", "b")

    def test_two_loss_burst_episodes_reproduce_scalar_sequence(self):
        session = Session(ExperimentConfig(seed=11))
        rt = FaultPlan(name="unit").install(session)
        host = session.network.host(session.testbed.sc_hostname("SC2"))
        size = mbit(2)
        lost = []
        for per_mb_loss, n in ((0.3, 5), (0.6, 200)):
            undo = LossBurst(target="SC2", per_mb_loss=per_mb_loss).apply(rt)
            model = host.extra_loss
            lost += [model.unit_lost(size, 0.0) for _ in range(n)]
            undo()
        ref = RandomStreams(seed=session.streams.seed).get(
            f"faults/loss/{host.hostname}"
        )
        want = []
        for per_mb_loss, n in ((0.3, 5), (0.6, 200)):
            ok = (1.0 - per_mb_loss) ** 2
            want += [ref.random() >= ok for _ in range(n)]
        assert lost == want
