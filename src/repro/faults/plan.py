"""Fault plans and their runtime.

A :class:`FaultPlan` is declarative: an explicit schedule of
``(t, fault)`` entries plus stochastic :mod:`~repro.faults.processes`,
all relative to an installation base time.  :meth:`FaultPlan.install`
binds it to a live :class:`~repro.experiments.scenario.Session`,
expanding the processes (seeded from the session's RNG tree), arming
one kernel timer per event, and returning the :class:`FaultRuntime`
that tracks **episodes** — apply/revert windows with time-to-recovery
accounting, surfaced as ``fault.*`` metrics and ``fault-*`` trace
events through :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.faults.injectors import Fault, Undo, fault_from_dict
from repro.faults.processes import FaultProcess, process_from_dict

__all__ = ["FaultPlan", "FaultRuntime", "Episode"]

#: Bucket bounds for the time-to-recovery histogram (seconds).
_RECOVERY_BUCKETS = (1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0,
                     1800.0, 3600.0)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative fault-injection plan (immutable, serializable)."""

    name: str = "custom"
    #: Explicit timeline: ``(seconds_after_base, fault)`` entries.
    schedule: Tuple[Tuple[float, Fault], ...] = ()
    #: Stochastic generators expanded at install time.
    processes: Tuple[FaultProcess, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "schedule", tuple((float(t), f) for t, f in self.schedule)
        )
        object.__setattr__(self, "processes", tuple(self.processes))
        for t, fault in self.schedule:
            if t < 0:
                raise ConfigError(f"schedule time must be >= 0, got {t}")
            if not isinstance(fault, Fault):
                raise ConfigError(f"not a Fault: {fault!r}")

    def install(self, session, base: Optional[float] = None) -> "FaultRuntime":
        """Bind the plan to a live session; timers start at ``base``
        (default: the current sim time)."""
        return FaultRuntime(self, session, base=base)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "schedule": [[t, f.to_dict()] for t, f in self.schedule],
            "processes": [p.to_dict() for p in self.processes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data.get("name", "custom"),
            schedule=tuple(
                (t, fault_from_dict(f)) for t, f in data.get("schedule", ())
            ),
            processes=tuple(
                process_from_dict(p) for p in data.get("processes", ())
            ),
        )


@dataclass
class Episode:
    """One apply→revert window of a fault."""

    kind: str
    target: str
    started_at: float
    ended_at: Optional[float] = None
    #: True when the run ended before the fault reverted — the
    #: recorded recovery is a lower bound.
    censored: bool = False

    @property
    def recovery_s(self) -> Optional[float]:
        """Time to recovery (None while still open)."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at


class FaultRuntime:
    """A plan bound to a live session: timers, episodes, metrics."""

    def __init__(self, plan: FaultPlan, session, base: Optional[float] = None):
        self.plan = plan
        self.session = session
        self.sim = session.sim
        self.network = session.network
        self.streams = session.streams
        self.tracer = session.network.tracer
        self.base = float(session.sim.now if base is None else base)
        if self.base < self.sim.now:
            raise ConfigError(
                f"plan base {self.base} is before now={self.sim.now}"
            )

        # Instruments bound once per runtime (cold path).
        reg = session.network.metrics
        self._m_episodes = reg.counter("fault.episodes")
        self._m_active = reg.gauge("fault.active")
        self._m_recovery = reg.histogram(
            "fault.recovery_s", bounds=_RECOVERY_BUCKETS
        )

        #: Every episode ever opened, in apply order.
        self.episodes: List[Episode] = []
        self._active = 0
        self._finalized = False

        events: List[Tuple[float, Fault]] = list(plan.schedule)
        for proc in plan.processes:
            events.extend(proc.events(self))
        events.sort(key=lambda e: e[0])
        #: The expanded absolute timeline ``(time, fault)`` — compare
        #: across runs for determinism checks.
        self.timeline: Tuple[Tuple[float, Fault], ...] = tuple(
            (self.base + t, fault) for t, fault in events
        )
        for at, fault in self.timeline:
            self.sim.call_at(at, self._fire, fault)

        runtimes = getattr(session, "fault_runtimes", None)
        if runtimes is not None:
            runtimes.append(self)

    # -- resolution ----------------------------------------------------------

    def resolve_names(self, target) -> Tuple[str, ...]:
        """Expand a symbolic target spec into hostnames (see
        :mod:`repro.faults.injectors` for the accepted forms)."""
        if isinstance(target, (tuple, list)):
            out: List[str] = []
            for entry in target:
                for name in self.resolve_names(entry):
                    if name not in out:
                        out.append(name)
            if not out:
                raise ConfigError("empty target group")
            return tuple(out)
        testbed = self.session.testbed
        if target == "broker":
            return (testbed.broker_hostname,)
        if target == "standby":
            standby = getattr(testbed, "standby_hostname", None)
            if standby is None:
                raise ConfigError(
                    "target 'standby' needs a testbed built with a "
                    "standby broker (a recovery config)"
                )
            return (standby,)
        if target == "simpleclients":
            return tuple(testbed.simpleclients.values())
        if target in testbed.simpleclients:
            return (testbed.simpleclients[target],)
        if isinstance(target, str) and target.startswith("region:"):
            region = target[len("region:"):]
            topo = self.network.topology
            names = tuple(
                h for h in topo.hostnames()
                if topo.node(h).site.region.name == region
            )
            if not names:
                raise ConfigError(f"no nodes in region {region!r}")
            return names
        # A raw hostname; let the topology reject unknowns loudly.
        self.network.topology.node(target)
        return (target,)

    def resolve(self, target):
        """Resolve a target spec to live hosts."""
        return tuple(self.network.host(h) for h in self.resolve_names(target))

    # -- firing --------------------------------------------------------------

    def _fire(self, fault: Fault) -> None:
        now = self.sim.now
        undo = fault.apply(self)
        target = fault.describe()
        episode = Episode(kind=fault.kind, target=target, started_at=now)
        self.episodes.append(episode)
        self._active += 1
        self._m_episodes.inc()
        self._m_active.set(self._active)
        self.tracer.record(
            "fault-apply", now, fault=fault.kind, target=target
        )
        duration = getattr(fault, "duration_s", None)
        if duration is not None:
            self.sim.call_at(now + duration, self._revert, fault, undo, episode)

    def _revert(self, fault: Fault, undo: Undo, episode: Episode) -> None:
        now = self.sim.now
        if undo is not None:
            undo()
        self.tracer.record(
            "fault-revert", now, fault=fault.kind, target=fault.describe()
        )
        if episode.ended_at is None:
            self._close(episode, now, censored=False)

    def _close(self, episode: Episode, now: float, censored: bool) -> None:
        episode.ended_at = now
        episode.censored = censored
        self._active -= 1
        self._m_active.set(self._active)
        self._m_recovery.observe(now - episode.started_at)

    def finalize(self) -> None:
        """End-of-run: close still-open episodes as *censored*.

        Their recovery time is measured to the current sim time — a
        lower bound, flagged via :attr:`Episode.censored`.  Called by
        the session when the scenario completes; idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        now = self.sim.now
        for episode in self.episodes:
            if episode.ended_at is None:
                self._close(episode, now, censored=True)
                self.tracer.record(
                    "fault-truncated", now,
                    fault=episode.kind, target=episode.target,
                )

    # -- reporting -----------------------------------------------------------

    def episode_count(self) -> int:
        """Episodes opened so far."""
        return len(self.episodes)

    def mean_recovery_s(self) -> float:
        """Mean time-to-recovery over closed episodes (NaN if none)."""
        closed = [e.recovery_s for e in self.episodes if e.ended_at is not None]
        if not closed:
            return float("nan")
        return sum(closed) / len(closed)
