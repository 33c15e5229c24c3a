"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems define narrower
subclasses: the simulation kernel raises :class:`SimulationError`
variants, the overlay raises :class:`OverlayError` variants, and the
selection layer raises :class:`SelectionError` variants.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "SimStopped",
    "SchedulingInPastError",
    "TransportError",
    "HostDownError",
    "NoRouteError",
    "TransferAborted",
    "OverlayError",
    "UnknownPeerError",
    "NotConnectedError",
    "TaskRejectedError",
    "SelectionError",
    "NoCandidatesError",
    "CriteriaError",
    "ConfigError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed or inconsistent."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class SimStopped(SimulationError):
    """Raised inside a process when the simulation has been stopped."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""


# --------------------------------------------------------------------------
# Transport / network substrate
# --------------------------------------------------------------------------


class TransportError(SimulationError):
    """Base class for network-substrate failures."""


class HostDownError(TransportError):
    """The destination host is not up (crashed or never started)."""


class NoRouteError(TransportError):
    """No path exists between two hosts in the topology."""


class TransferAborted(TransportError):
    """A bulk transfer was cancelled or exceeded its retry budget."""


# --------------------------------------------------------------------------
# Overlay
# --------------------------------------------------------------------------


class OverlayError(ReproError):
    """Base class for JXTA-overlay protocol errors."""


class UnknownPeerError(OverlayError):
    """A peer id does not resolve to a registered peer."""


class NotConnectedError(OverlayError):
    """The peer is not connected to a broker (or the broker is gone)."""


class TaskRejectedError(OverlayError):
    """A peer declined to execute a submitted task."""


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------


class SelectionError(ReproError):
    """Base class for peer-selection failures."""


class NoCandidatesError(SelectionError):
    """The selector was invoked with an empty candidate set."""


class CriteriaError(SelectionError):
    """A data-evaluator criterion is unknown or its weight is invalid."""

