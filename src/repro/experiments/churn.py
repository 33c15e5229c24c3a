"""Churn experiment (extension): selection under peer churn.

P2P populations churn; PlanetLab slivers reboot.  This experiment
cycles the SimpleClients through up/down phases (exponential dwell
times) while a client dispatches a stream of transfers placed by one of
three policies:

* **blind** — round-robin over every *registered* peer, alive or not
  (no information, the paper's "blind way");
* **economic** — the scheduling model over the broker's *live* view
  (keepalive-recency liveness filter, or SWIM's view under a
  federation, + ready-time ranking);
* **same_priority** — the data evaluator over the same live view.

Reported per policy: completion rate, aborted transfers, and the mean
transmission cost of the completed ones.  Expected shape: informed
policies complete (nearly) everything because the liveness window
screens out silently crashed peers; blind placement burns its retry
budget on dead peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.analysis.stats import Summary
from repro.errors import HostDownError, TransferAborted
from repro.experiments.report import render_table
from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig, Session
from repro.experiments.steps import candidates, make_selector
from repro.faults import ExponentialChurn, FaultPlan
from repro.overlay.peer import PeerConfig, RequestTimeout
from repro.selection.base import SelectionContext, Workload
from repro.units import mbit, to_mbit

__all__ = ["ChurnResult", "run", "POLICIES"]

POLICIES: Tuple[str, ...] = ("blind", "economic", "same_priority")

#: Churn process: mean up/down dwell times (seconds).
MEAN_UP_S = 400.0
MEAN_DOWN_S = 120.0
CHURN_HORIZON_S = 3000.0
#: Workload: a stream of small transfers.
N_TRANSFERS = 12
TRANSFER_BITS = mbit(10)
TRANSFER_PARTS = 2

#: Short protocol timeouts so dead-peer attempts fail quickly.
_CHURN_PEER_CONFIG = PeerConfig(
    petition_timeout_s=40.0,
    petition_retries=2,
    confirm_timeout_s=20.0,
    confirm_retries=2,
)


@dataclass(frozen=True)
class ChurnResult:
    """Per-policy churn outcomes."""

    summaries: Mapping[str, Summary]  # keys "<policy>/completed" etc.

    def completed(self, policy: str) -> float:
        """Mean number of completed transfers (of N_TRANSFERS)."""
        return self.summaries[f"{policy}/completed"].mean

    def aborted(self, policy: str) -> float:
        """Mean number of aborted transfers."""
        return self.summaries[f"{policy}/aborted"].mean

    def cost(self, policy: str) -> float:
        """Mean s/Mb over completed transfers."""
        return self.summaries[f"{policy}/cost"].mean

    def completion_rate(self, policy: str) -> float:
        """Completed / offered."""
        return self.completed(policy) / N_TRANSFERS

    def table(self) -> str:
        """Per-policy outcome table."""
        rows = [
            (
                policy,
                self.completion_rate(policy),
                self.aborted(policy),
                self.cost(policy),
            )
            for policy in POLICIES
        ]
        return render_table(
            ("policy", "completion rate", "aborted", "cost (s/Mb)"),
            rows,
            title=f"Churn — {N_TRANSFERS} transfers under peer churn",
        )


def _start_churn(session: Session) -> None:
    """Cycle every SimpleClient through up/down phases via a FaultPlan."""
    plan = FaultPlan(
        name="churn",
        processes=(
            ExponentialChurn(
                targets=session.sc_labels(),
                mean_up_s=MEAN_UP_S,
                mean_down_s=MEAN_DOWN_S,
                horizon_s=CHURN_HORIZON_S,
                min_down_s=1.0,
            ),
        ),
    )
    plan.install(session)


def _scenario(session: Session):
    sim = session.sim
    broker = session.broker
    # Warmup history before churn starts.
    for label in session.sc_labels():
        yield from sim.call(
            broker.transfers.send_file(
                session.client(label).advertisement(), f"w-{label}", mbit(5)
            )
        )
    _start_churn(session)
    yield 200.0  # let the first outages begin and keepalives lapse

    metrics: Dict[str, float] = {}
    for policy in POLICIES:
        selector = make_selector(policy, session, "churn", reserve=False)
        completed = 0
        aborted = 0
        cost_total = 0.0
        for i in range(N_TRANSFERS):
            pool = candidates(policy, session)
            if not pool:
                aborted += 1
                yield 30.0
                continue
            ctx = SelectionContext(
                broker=broker,
                now=sim.now,
                workload=Workload(
                    transfer_bits=TRANSFER_BITS, n_parts=TRANSFER_PARTS
                ),
                candidates=pool,
            )
            record = selector.select(ctx)
            try:
                outcome = yield from sim.call(
                    broker.transfers.send_file(
                        record.adv,
                        f"{policy}-{i}",
                        TRANSFER_BITS,
                        n_parts=TRANSFER_PARTS,
                    )
                )
                completed += 1
                cost_total += outcome.transmission_time
            except (TransferAborted, HostDownError, RequestTimeout):
                # A confirm round that never got its reply fails the
                # placement like an aborted transfer.
                aborted += 1
        metrics[f"{policy}/completed"] = float(completed)
        metrics[f"{policy}/aborted"] = float(aborted)
        metrics[f"{policy}/cost"] = (
            cost_total / completed / to_mbit(TRANSFER_BITS)
            if completed
            else float("nan")
        )
    return metrics


def run(config: ExperimentConfig = ExperimentConfig()) -> ChurnResult:
    """Run the churn experiment."""
    from dataclasses import replace

    config = replace(config, peer_config=_CHURN_PEER_CONFIG)
    rows: List[Mapping[str, float]] = run_repetitions(config, _scenario)
    return ChurnResult(summaries=average_rows(rows))
