"""Tests for advertisements and expiry."""

from __future__ import annotations

import pytest

from repro.overlay.advertisements import (
    DEFAULT_LIFETIME_S,
    PeerAdvertisement,
    ResourceAdvertisement,
)
from repro.overlay.ids import IdFactory

ids = IdFactory()


def peer_adv(published=0.0, lifetime=DEFAULT_LIFETIME_S, **kw):
    defaults = dict(
        published_at=published,
        lifetime_s=lifetime,
        peer_id=ids.peer_id("x"),
        name="x",
        hostname="x.example",
    )
    defaults.update(kw)
    return PeerAdvertisement(**defaults)


class TestExpiry:
    def test_fresh_before_expiry(self):
        adv = peer_adv(published=100.0, lifetime=50.0)
        assert not adv.is_expired(149.0)

    def test_expired_at_boundary(self):
        adv = peer_adv(published=100.0, lifetime=50.0)
        assert adv.is_expired(150.0)

    def test_expires_at(self):
        adv = peer_adv(published=10.0, lifetime=5.0)
        assert adv.expires_at == 15.0


class TestPeerAdvertisement:
    def test_requires_peer_id(self):
        with pytest.raises(ValueError):
            PeerAdvertisement(published_at=0.0)

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            peer_adv(kind="mystery")

    def test_valid_kinds(self):
        for kind in ("simpleclient", "client", "broker"):
            assert peer_adv(kind=kind).kind == kind


class TestResourceAdvertisement:
    def test_requires_peer_id(self):
        with pytest.raises(ValueError):
            ResourceAdvertisement(published_at=0.0)

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            ResourceAdvertisement(
                published_at=0.0, peer_id=ids.peer_id(), kind="widget"
            )

    def test_file_resource_attrs(self):
        adv = ResourceAdvertisement(
            published_at=0.0,
            peer_id=ids.peer_id(),
            kind="file",
            name="data.bin",
            attrs={"size_bits": 100.0},
        )
        assert adv.attrs["size_bits"] == 100.0
