"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_transport_under_simulation(self):
        assert issubclass(errors.TransportError, errors.SimulationError)
        assert issubclass(errors.TransferAborted, errors.TransportError)
        assert issubclass(errors.HostDownError, errors.TransportError)

    def test_overlay_family(self):
        for cls in (
            errors.UnknownPeerError,
            errors.NotConnectedError,
            errors.AdvertisementExpired,
            errors.TaskRejectedError,
        ):
            assert issubclass(cls, errors.OverlayError)

    def test_selection_family(self):
        assert issubclass(errors.NoCandidatesError, errors.SelectionError)
        assert issubclass(errors.CriteriaError, errors.SelectionError)

    def test_catch_all_pattern(self):
        with pytest.raises(errors.ReproError):
            raise errors.NoCandidatesError("nothing to pick")
