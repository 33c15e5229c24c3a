"""Resilience matrix (extension): selection policies × fault profiles.

Generalizes the churn experiment: instead of one hard-coded failure
mode, every named :mod:`repro.faults` profile (plus a fault-free
baseline) is crossed with the three paper selection policies.  Each
cell runs its own sessions — warmup transfers build observed history,
then a stream of placements is made by the policy while the profile's
fault windows open and close around it.

When the config carries a :class:`~repro.recovery.config.RecoveryConfig`
the cell runs *self-healing*: each placement is a supervised delivery
(:class:`~repro.swarm.coordinator.SwarmCoordinator` fixed at the
sending broker, one receiver at a time) that waits out the broker's
own outages and replaces a failed receiver at once with one that gets
only the unproven parts, a standby broker takes over on primary
outages, and the informed policies degrade gracefully when their
inputs go stale.  The matrix then reports recovered-vs-lost
work — resume counts, recovered megabits, failover latency and goodput
— next to the classic completion/cost columns, so recovery on/off is a
column-by-column comparison per (profile, policy) cell.

Accounting is three-way: a placement is **completed**, **aborted**
(resolved as failed), or **censored** — still in flight when the run
deadline ends it (a censored supervised delivery is aborted and
settles before the cell ends).  Censored work is neither success nor
failure; the completion rate is taken over resolved placements only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import Summary
from repro.errors import (
    HostDownError,
    SelectionError,
    TransferAborted,
)
from repro.experiments.churn import POLICIES
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_cells
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import candidates, make_selector
from repro.faults.profiles import get_profile
from repro.overlay.peer import PeerConfig, RequestTimeout
from repro.recovery.degraded import (
    StalenessAwareEvaluator,
    StalenessAwareScheduler,
)
from repro.selection.base import SelectionContext, Workload
from repro.swarm.coordinator import Leg, SwarmCoordinator
from repro.units import mbit, to_mbit

__all__ = ["ResilienceResult", "run", "DEFAULT_PROFILES", "POLICIES"]

#: Matrix rows: the fault-free baseline plus every named profile.
DEFAULT_PROFILES: Tuple[str, ...] = (
    "baseline",
    "straggler",
    "flaky_links",
    "partition_eu",
    "broker_blip",
)

#: Workload: a stream of small transfers after a short warmup.
N_TRANSFERS = 10
TRANSFER_BITS = mbit(10)
TRANSFER_PARTS = 2
WARMUP_BITS = mbit(2)
#: Pause between placements: stretches the run across the profiles'
#: fault windows (mean gaps of minutes) instead of racing past them.
PACING_S = 45.0
#: Run deadline (sim-seconds after the placement phase starts): work
#: still in flight when it strikes is *censored*, not failed.
RUN_DEADLINE_S = 3600.0

#: Short protocol timeouts so failed attempts resolve quickly, and a
#: bounded bulk retry budget so loss bursts abort instead of grinding.
_RESILIENCE_PEER_CONFIG = PeerConfig(
    petition_timeout_s=40.0,
    petition_retries=2,
    confirm_timeout_s=20.0,
    confirm_retries=2,
    bulk_max_attempts=12,
)


@dataclass(frozen=True)
class ResilienceResult:
    """Per-(profile, policy) outcomes."""

    profiles: Tuple[str, ...]
    summaries: Mapping[str, Summary]  # keys "<profile>/<policy>/<metric>"

    def _mean(self, profile: str, policy: str, metric: str) -> float:
        return self.summaries[f"{profile}/{policy}/{metric}"].mean

    def completion_rate(self, profile: str, policy: str) -> float:
        """Completed / resolved (censored placements excluded; NaN
        when nothing resolved)."""
        resolved = self._mean(profile, policy, "completed") + self._mean(
            profile, policy, "aborted"
        )
        if resolved <= 0:
            return float("nan")
        return self._mean(profile, policy, "completed") / resolved

    def aborted(self, profile: str, policy: str) -> float:
        """Mean number of aborted (resolved-failed) transfers."""
        return self._mean(profile, policy, "aborted")

    def censored(self, profile: str, policy: str) -> float:
        """Mean transfers still in flight at the run deadline."""
        return self._mean(profile, policy, "censored")

    def offered(self, profile: str, policy: str) -> float:
        """Mean transfers actually issued before the deadline."""
        return self._mean(profile, policy, "offered")

    def cost(self, profile: str, policy: str) -> float:
        """Mean s/Mb over completed transfers."""
        return self._mean(profile, policy, "cost")

    def recovery_s(self, profile: str, policy: str) -> float:
        """Mean fault time-to-recovery (NaN for the baseline)."""
        return self._mean(profile, policy, "recovery")

    def episodes(self, profile: str, policy: str) -> float:
        """Mean fault episodes per run."""
        return self._mean(profile, policy, "episodes")

    def resumes(self, profile: str, policy: str) -> float:
        """Mean checkpoint-resume events (0 without recovery)."""
        return self._mean(profile, policy, "resumes")

    def recovered_mbit(self, profile: str, policy: str) -> float:
        """Mean megabits carried over from checkpointed parts."""
        return self._mean(profile, policy, "recovered_mbit")

    def failover_s(self, profile: str, policy: str) -> float:
        """Mean broker-failover latency (NaN when no failover)."""
        return self._mean(profile, policy, "failover_s")

    def goodput(self, profile: str, policy: str) -> float:
        """Delivered Mb per sim-second over the placement phase."""
        return self._mean(profile, policy, "goodput")

    def table(self) -> str:
        """The matrix as a text table."""
        rows = [
            (
                profile,
                policy,
                self.completion_rate(profile, policy),
                self.aborted(profile, policy),
                self.censored(profile, policy),
                self.cost(profile, policy),
                self.recovery_s(profile, policy),
                self.resumes(profile, policy),
                self.recovered_mbit(profile, policy),
                self.failover_s(profile, policy),
                self.goodput(profile, policy),
                self.episodes(profile, policy),
            )
            for profile in self.profiles
            for policy in POLICIES
        ]
        return render_table(
            (
                "profile", "policy", "completion rate", "aborted",
                "censored", "cost (s/Mb)", "recovery (s)", "resumes",
                "recovered (Mb)", "failover (s)", "goodput (Mb/s)",
                "episodes",
            ),
            rows,
            title=(
                f"Resilience — {N_TRANSFERS} transfers per policy "
                f"under fault profiles"
            ),
        )


def _make_policy(policy: str, session: Session):
    recovery = session.config.recovery
    if recovery is None or policy == "blind":
        # Blind placement consults no statistics, so it has no
        # degraded variant.
        return make_selector(policy, session, "resilience", reserve=False)
    if policy == "economic":
        return StalenessAwareScheduler(
            reserve=False, budget_s=recovery.staleness_budget_s
        )
    if policy == "same_priority":
        return StalenessAwareEvaluator(
            "same_priority",
            tiebreak_rng=session.streams.get("resilience/evaluator-ties"),
            budget_s=recovery.staleness_budget_s,
        )
    raise ValueError(f"unknown policy {policy!r}")


def _workload() -> Workload:
    return Workload(transfer_bits=TRANSFER_BITS, n_parts=TRANSFER_PARTS)


def _scenario(session: Session, policy: str):
    """One policy's transfer stream for one cell."""
    sim = session.sim
    broker = session.broker
    recovery = session.config.recovery
    # Warmup history so informed policies start with observations;
    # early fault windows may already bite here.
    for label in session.sc_labels():
        try:
            yield from sim.call(
                broker.transfers.send_file(
                    session.client(label).advertisement(),
                    f"w-{label}",
                    WARMUP_BITS,
                )
            )
        except (TransferAborted, HostDownError, RequestTimeout):
            pass

    selector = _make_policy(policy, session)

    def pick(exclude=()):
        """One selection round against the acting leader."""
        pool = [
            rec
            for rec in candidates(policy, session)
            if rec.adv.name not in exclude
        ]
        if not pool:
            return None
        ctx = SelectionContext(
            broker=session.leader_broker,
            now=sim.now,
            workload=_workload(),
            candidates=pool,
        )
        try:
            return selector.select(ctx).adv
        except SelectionError:
            return None

    def select_leg(needed, exclude):
        adv = pick(exclude)
        return () if adv is None else (Leg(adv),)

    def attempt_legacy(adv, filename):
        """Catcher: one unsupervised transfer's outcome, or None."""
        try:
            outcome = yield from sim.call(
                broker.transfers.send_file(
                    adv, filename, TRANSFER_BITS, n_parts=TRANSFER_PARTS
                )
            )
            return outcome
        except (TransferAborted, HostDownError, RequestTimeout):
            # HostDownError = the broker itself is in an outage
            # window; the offered transfer is lost like any other.
            return None

    offered = 0
    completed = 0
    aborted = 0
    censored = 0
    cost_total = 0.0
    goodput_bits = 0.0
    resumes = 0
    recovered_bits = 0.0
    phase_started = sim.now
    deadline_at = phase_started + RUN_DEADLINE_S
    driver = proc = None
    for i in range(N_TRANSFERS):
        if deadline_at - sim.now <= 0:
            break
        filename = f"{policy}-{i}"
        if recovery is not None:
            driver = SwarmCoordinator(
                session.network, broker, filename, TRANSFER_BITS,
                TRANSFER_PARTS, select_leg, k=1,
            )
            proc = sim.process(driver.download())
        else:
            adv = pick()
            if adv is None:
                offered += 1
                aborted += 1
                yield PACING_S
                continue
            proc = sim.process(attempt_legacy(adv, filename))
        offered += 1
        if not (yield from sim.within(proc, deadline_at - sim.now)):
            # Still in flight when the run deadline struck: the
            # outcome is unknown — censor, don't count as failed.
            censored += 1
            if driver is not None:
                driver.abort("deadline")
            break
        out = proc.value
        if driver is not None:
            resumes += out.resumes
            recovered_bits += out.recovered_bits
            seconds = out.transmission_s if out.ok else None
        else:
            seconds = out.transmission_time if out is not None else None
        if seconds is not None:
            completed += 1
            cost_total += seconds
            goodput_bits += TRANSFER_BITS
        else:
            aborted += 1
        yield PACING_S

    elapsed = max(sim.now - phase_started, 1e-9)
    metrics: Dict[str, float] = {
        "offered": float(offered),
        "completed": float(completed),
        "aborted": float(aborted),
        "censored": float(censored),
        "cost": (
            cost_total / completed / to_mbit(TRANSFER_BITS)
            if completed
            else float("nan")
        ),
        "goodput": to_mbit(goodput_bits) / elapsed,
        "resumes": float(resumes),
        "recovered_mbit": recovered_bits / 1e6,
    }
    faults = session.faults
    metrics["episodes"] = (
        float(faults.episode_count()) if faults is not None else 0.0
    )
    metrics["recovery"] = (
        faults.mean_recovery_s() if faults is not None else float("nan")
    )
    failover = session.failover
    metrics["failover_s"] = (
        failover.mean_failover_latency_s()
        if failover is not None
        else float("nan")
    )
    if driver is not None and not driver.settled:
        # The censored delivery settles before the cell ends.  Its leg
        # may still hold a part in flight: that is dropped with the
        # session and cleans up nothing.
        yield proc
    return metrics


def run(
    config: ExperimentConfig = ExperimentConfig(),
    profiles: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> ResilienceResult:
    """Run the resilience matrix.

    ``profiles`` defaults to :data:`DEFAULT_PROFILES` — unless the
    config carries a ``fault_plan`` (e.g. from ``--faults``), in which
    case the matrix is that plan against the fault-free baseline.  A
    config with ``recovery`` set runs every cell self-healing.

    The profile×policy cells run as one :func:`run_cells` sweep, so
    ``workers`` > 1 fans every (cell, repetition) out over a process
    pool (``None`` = the :mod:`repro.perf.parallel` default, ``0`` =
    one per CPU); results and merged metrics are bit-identical to the
    serial matrix.
    """
    if profiles is None:
        if config.fault_plan is not None:
            profiles = ("baseline", config.fault_plan.name)
        else:
            profiles = DEFAULT_PROFILES
    base = replace(config, peer_config=_RESILIENCE_PEER_CONFIG)
    cells = []
    for profile in profiles:
        if profile == "baseline":
            plan = None
        elif config.fault_plan is not None and profile == config.fault_plan.name:
            plan = config.fault_plan
        else:
            plan = get_profile(profile)
        cell_config = replace(base, fault_plan=plan)
        for policy in POLICIES:
            cells.append((cell_config, partial(_scenario, policy=policy)))
    cell_rows = iter(run_cells(cells, workers))

    summaries: Dict[str, Summary] = {}
    for profile in profiles:
        for policy in POLICIES:
            for key, summary in average_rows(next(cell_rows)).items():
                summaries[f"{profile}/{policy}/{key}"] = summary
    return ResilienceResult(profiles=tuple(profiles), summaries=summaries)
