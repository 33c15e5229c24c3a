"""Declarative fault injection (``repro.faults``).

Compose typed injectors (:class:`NodeCrash`, :class:`NodeSlowdown`,
:class:`LinkDegrade`, :class:`LossBurst`, :class:`Partition`,
:class:`BrokerOutage`, ...) into a :class:`FaultPlan` — an explicit
``(t, fault)`` schedule plus stochastic processes seeded from the
simnet RNG tree — then install it on a live experiment session.  The
:class:`FaultRuntime` arms kernel timers, tracks per-episode
time-to-recovery, and reports through ``fault.*`` metrics and trace
events.  Named profiles for the CLI's ``--faults`` flag live in
:mod:`repro.faults.profiles`.
"""

from repro.faults.injectors import (
    BrokerOutage,
    Fault,
    LinkDegrade,
    LossBurst,
    NodeCrash,
    NodeSlowdown,
    Partition,
    fault_from_dict,
)
from repro.faults.plan import Episode, FaultPlan, FaultRuntime
from repro.faults.processes import (
    ExponentialChurn,
    FaultProcess,
    RandomWindows,
    process_from_dict,
)
from repro.faults.profiles import PROFILES, get_profile

__all__ = [
    "Fault",
    "NodeCrash",
    "NodeSlowdown",
    "LinkDegrade",
    "LossBurst",
    "Partition",
    "BrokerOutage",
    "FaultPlan",
    "FaultRuntime",
    "Episode",
    "FaultProcess",
    "ExponentialChurn",
    "RandomWindows",
    "PROFILES",
    "get_profile",
    "fault_from_dict",
    "process_from_dict",
]
