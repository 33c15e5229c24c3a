"""Regression tests for the candidates() liveness-window boundary.

The recency filter drops peers whose last sign of life is *older than*
the window — a peer exactly at the boundary is still eligible.  This
matters when the window is an exact multiple of the keepalive period
("3 keepalive periods"): at sampling instants a healthy peer's age
routinely lands exactly on the boundary, and an exclusive comparison
would flap it out of selection spuriously.
"""

from __future__ import annotations

from tests.conftest import connect, run_process

WINDOW = 90.0


def _age_record(sim, broker, client, age: float):
    rec = broker.record(client.peer_id)
    rec.last_seen = sim.now - age
    return rec


def _advance(sim, seconds: float):
    def clock():
        yield seconds

    run_process(sim, clock())


class TestExplicitWindow:
    def test_age_equal_to_window_is_eligible(self, overlay_pair, sim):
        broker, client, _net = overlay_pair
        connect(sim, broker, client)
        _advance(sim, WINDOW * 2)
        _age_record(sim, broker, client, WINDOW)
        names = [
            r.adv.name
            for r in broker.candidates(liveness_timeout_s=WINDOW)
        ]
        assert names == ["client"], "boundary is inclusive"

    def test_age_beyond_window_is_dropped(self, overlay_pair, sim):
        broker, client, _net = overlay_pair
        connect(sim, broker, client)
        _advance(sim, WINDOW * 2)
        _age_record(sim, broker, client, WINDOW + 1e-9)
        assert broker.candidates(liveness_timeout_s=WINDOW) == []

    def test_explicit_none_disables_filter(self, overlay_pair, sim):
        broker, client, _net = overlay_pair
        connect(sim, broker, client)
        _advance(sim, WINDOW * 10)
        _age_record(sim, broker, client, WINDOW * 9)
        assert [
            r.adv.name
            for r in broker.candidates(liveness_timeout_s=None)
        ] == ["client"]

