"""Workload traces: persist and replay job schedules.

A *trace* is a concrete, timestamped job list — the bridge between
generated workloads and reproducible experiments: generate once with
:class:`~repro.workloads.generator.WorkloadGenerator`, save to JSON,
replay against any session/selector combination.  Replays are
deterministic given the session seed, so two policies can be compared
on *exactly* the same offered load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ReproError
from repro.units import to_mbit
from repro.workloads.files import FileSpec
from repro.workloads.generator import Job
from repro.workloads.tasks import ProcessingTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import Session
    from repro.selection.base import PeerSelector

__all__ = ["save_jobs", "load_jobs", "ReplayOutcome", "ReplayReport", "replay"]

_FORMAT_VERSION = 1


def _job_to_dict(job: Job) -> dict:
    out: dict = {"arrival_s": job.arrival_s, "kind": job.kind,
                 "n_parts": job.n_parts}
    if job.kind == "transfer":
        out["file"] = {"name": job.file.name, "size_bits": job.file.size_bits}
    else:
        task = job.task
        out["task"] = {
            "name": task.name,
            "ops_per_mbit": task.ops_per_mbit,
            "base_ops": task.base_ops,
        }
        if task.input_file is not None:
            out["task"]["input"] = {
                "name": task.input_file.name,
                "size_bits": task.input_file.size_bits,
            }
    return out


def _job_from_dict(data: dict) -> Job:
    kind = data["kind"]
    if kind == "transfer":
        f = data["file"]
        return Job(
            arrival_s=data["arrival_s"],
            kind="transfer",
            file=FileSpec(name=f["name"], size_bits=f["size_bits"]),
            n_parts=data.get("n_parts", 1),
        )
    t = data["task"]
    input_file = None
    if "input" in t:
        input_file = FileSpec(
            name=t["input"]["name"], size_bits=t["input"]["size_bits"]
        )
    task = ProcessingTask(
        name=t["name"],
        input_file=input_file,
        ops_per_mbit=t.get("ops_per_mbit", 0.0),
        base_ops=t.get("base_ops", 0.0),
    )
    return Job(
        arrival_s=data["arrival_s"],
        kind="task",
        task=task,
        n_parts=data.get("n_parts", 1),
    )


def save_jobs(jobs: Sequence[Job], path) -> None:
    """Write a job trace as JSON."""
    payload = {
        "version": _FORMAT_VERSION,
        "jobs": [_job_to_dict(j) for j in jobs],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_jobs(path) -> List[Job]:
    """Read a trace written by :func:`save_jobs` (arrival-sorted)."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ReproError(f"unsupported trace version {version!r}")
    jobs = [_job_from_dict(d) for d in payload["jobs"]]
    jobs.sort(key=lambda j: j.arrival_s)
    return jobs


@dataclass(frozen=True)
class ReplayOutcome:
    """One replayed job's result."""

    job: Job
    peer_name: str
    ok: bool
    dispatched_at: float
    finished_at: float
    error: str = ""

    @property
    def duration(self) -> float:
        """Dispatch to completion (seconds)."""
        return self.finished_at - self.dispatched_at


@dataclass
class ReplayReport:
    """Everything measured about one trace replay."""

    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Jobs that finished successfully."""
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        """Jobs that aborted."""
        return sum(1 for o in self.outcomes if not o.ok)

    def mean_transfer_cost(self) -> float:
        """Mean s/Mb over completed transfer jobs (NaN if none)."""
        costs = [
            o.duration / to_mbit(o.job.file.size_bits)
            for o in self.outcomes
            if o.ok and o.job.kind == "transfer"
        ]
        if not costs:
            return float("nan")
        return sum(costs) / len(costs)


def replay(
    session: "Session",
    jobs: Sequence[Job],
    selector: "PeerSelector",
    candidates_fn=None,
):
    """Generator: replay a trace against a session.

    Wait on it with ``yield from sim.call(...)``; start it with
    ``sim.process`` only to run it alongside the caller.

    Each job waits for its arrival time (relative to replay start),
    selects a peer with ``selector`` and runs to completion *in the
    background* — arrivals are open-loop, as in the generator's model.
    Returns a :class:`ReplayReport`.
    """
    from repro.errors import ReproError as _ReproError
    from repro.selection.base import SelectionContext, Workload

    sim = session.sim
    broker = session.broker
    start = sim.now
    report = ReplayReport()
    get_candidates = candidates_fn or (lambda: broker.candidates())

    def run_job(job: Job):
        dispatched = sim.now
        workload = (
            Workload(transfer_bits=job.file.size_bits, n_parts=job.n_parts)
            if job.kind == "transfer"
            else Workload(
                transfer_bits=job.task.input_bits,
                n_parts=job.n_parts,
                ops=job.task.ops,
            )
        )
        try:
            record = selector.select(
                SelectionContext(
                    broker=broker,
                    now=sim.now,
                    workload=workload,
                    candidates=get_candidates(),
                )
            )
            if job.kind == "transfer":
                yield from sim.call(
                    broker.transfers.send_file(
                        record.adv, job.file.name, job.file.size_bits,
                        n_parts=job.n_parts,
                    )
                )
                ok, error = True, ""
            else:
                outcome = yield from sim.call(
                    broker.tasks.submit(
                        record.adv, job.task.name, ops=job.task.ops,
                        input_bits=job.task.input_bits, input_parts=job.n_parts,
                    )
                )
                ok, error = outcome.ok, outcome.error
            name = record.adv.name
        except _ReproError as exc:
            ok, error, name = False, str(exc), "<unplaced>"
        report.outcomes.append(
            ReplayOutcome(
                job=job,
                peer_name=name,
                ok=ok,
                dispatched_at=dispatched,
                finished_at=sim.now,
                error=error,
            )
        )

    procs = []
    for job in sorted(jobs, key=lambda j: j.arrival_s):
        target = start + job.arrival_s
        if target > sim.now:
            yield target - sim.now
        procs.append(sim.process(run_job(job), name=f"replay:{job.kind}"))
    if procs:
        yield sim.all_of(procs)
    return report
