"""Tests for the petition retry backoff (PeerConfig knobs)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, TransferAborted
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.overlay.peer import PeerConfig
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import make_two_node_topology


def petition_abort_time(config: PeerConfig, seed: int = 42) -> float:
    """Sim time at which a petition to a dead peer gives up."""
    sim = Simulator()
    net = Network(
        sim, make_two_node_topology(), streams=RandomStreams(seed=seed)
    )
    ids = IdFactory()
    broker = Broker(net, "a.example", ids, name="broker", config=config)
    client = SimpleClient(net, "b.example", ids, name="client", config=config)
    net.host("b.example").crash()

    p = sim.process(
        broker.transfers.send_file(client.advertisement(), "f", mbit(1))
    )
    with pytest.raises(TransferAborted):
        sim.run(until=p)
    return sim.now


BASE_CONFIG = dict(petition_timeout_s=10.0, petition_retries=3)


class TestBackoff:
    def test_default_adds_no_delay(self):
        # base=0 disables backoff: attempts are back to back, so the
        # abort lands exactly at retries * timeout (legacy behaviour).
        config = PeerConfig(**BASE_CONFIG)
        assert petition_abort_time(config) == pytest.approx(30.0)

    def test_exponential_delays_between_attempts(self):
        config = PeerConfig(
            **BASE_CONFIG,
            petition_backoff_base_s=4.0,
            petition_backoff_factor=2.0,
            petition_backoff_jitter=0.0,
        )
        # Delays after attempts 1 and 2: 4 s, then 8 s.
        assert petition_abort_time(config) == pytest.approx(30.0 + 4.0 + 8.0)

    def test_delay_capped_at_max(self):
        config = PeerConfig(
            **BASE_CONFIG,
            petition_backoff_base_s=4.0,
            petition_backoff_factor=10.0,
            petition_backoff_max_s=6.0,
            petition_backoff_jitter=0.0,
        )
        # Delays: 4 s, then min(40, 6) = 6 s.
        assert petition_abort_time(config) == pytest.approx(30.0 + 4.0 + 6.0)

    def test_jitter_is_deterministic_and_bounded(self):
        config = PeerConfig(
            **BASE_CONFIG,
            petition_backoff_base_s=4.0,
            petition_backoff_factor=2.0,
            petition_backoff_jitter=0.25,
        )
        first = petition_abort_time(config, seed=42)
        again = petition_abort_time(config, seed=42)
        assert first == again  # same RNG tree, same delays
        # Each delay is scaled by [1, 1.25).
        assert 30.0 + 12.0 <= first < 30.0 + 12.0 * 1.25
        other = petition_abort_time(config, seed=43)
        assert other != first  # jitter really draws from the stream

    def test_validation(self):
        with pytest.raises(ConfigError):
            PeerConfig(petition_backoff_base_s=-1.0)
        with pytest.raises(ConfigError):
            PeerConfig(petition_backoff_factor=0.5)
        with pytest.raises(ConfigError):
            PeerConfig(petition_backoff_jitter=-0.1)
