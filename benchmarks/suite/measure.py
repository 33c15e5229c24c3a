"""Measure one workload: timed iterations, checks, metrics, record.

A run takes about ``seconds``, set-up probes included: it starts no
iteration it expects to end past that.  An untraced run times the
import probes, then repeats the workload, each iteration under a fresh
``MetricsRegistry`` (as ``--metrics-out`` runs do) and a
:class:`~.speed.SpeedSampler`, and reports the end-to-end metrics.  It cycles through several input seeds, so that
one run averages over inputs instead of measuring one draw of a seeded
workload (the work of one input moves with the seed by a few percent,
more on the broker-kill cell).  A traced run times one untraced
iteration of the first input, then repeats that input under
:mod:`.tracer` and reports the per-layer metrics.

Both check the outputs: each input's result digest must repeat across
its iterations (traced ones included) and every enforced criterion
must hold.
"""

from __future__ import annotations

# simlint: disable-file=SIM001 -- this module times the host, not the simulation

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, use_registry

from benchmarks.suite import speed
from benchmarks.suite import tracer as layer_tracer
from benchmarks.suite import workloads
from benchmarks.suite.workloads import Artifact

__all__ = ["Run", "host", "import_seconds", "measure", "report"]

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Fresh interpreters timed importing the experiment package.
IMPORT_PROBES = 3
_IMPORT_PROBE = """
import time
from benchmarks.suite.speed import reference_s
before = reference_s()
start = time.perf_counter()
import repro.experiments
took = time.perf_counter() - start
print(took, before, reference_s())
"""

#: Payload types of the periodic liveness traffic.
_BEACONS = ("KeepAlive", "StatReport")
_SWIM = ("GossipPing", "GossipAck", "GossipPingReq")
#: Payload types of the overlay file-transfer protocol.
_TRANSFER_MSGS = (
    "FilePetition", "PetitionAck", "PartNotice", "PartConfirm",
    "TransferCancel", "TransferComplete",
)


@dataclass
class Iteration:
    """One pass over a workload's artifacts."""

    variant: int
    wall_s: float  # normalised host seconds (raw when not sampled)
    raw_s: float
    session_init_s: float
    sessions: int
    digest: str
    errors: Dict[str, str]
    results: Dict[str, Any]
    registry: MetricsRegistry


@dataclass
class Run:
    """Everything one measurement produced."""

    seeds: List[int]
    variants: List[Sequence[Artifact]]
    iterations: List[Iteration] = field(default_factory=list)
    traced: List[Iteration] = field(default_factory=list)
    tracer: Optional[layer_tracer.LayerTracer] = None
    import_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    fig2_log_err: float = 0.0


@contextmanager
def _session_timer() -> Iterator[List[float]]:
    """Accumulate ``[seconds, calls]`` spent in ``Session.__init__``."""
    from repro.experiments.scenario import Session

    original = Session.__init__
    spent = [0.0, 0]

    def timed(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            original(self, *args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start
            spent[1] += 1

    Session.__init__ = timed
    try:
        yield spent
    finally:
        Session.__init__ = original


@contextmanager
def _traced(tracer: layer_tracer.LayerTracer) -> Iterator[List[float]]:
    """Install ``tracer``; at exit, fill ``[seconds, calls]`` spent in
    ``Session.__init__`` from the tracer's span of it (a second wrapper
    around the call would time the tracer's own work too)."""
    spent = [0.0, 0]
    before = tracer.inclusive("Session.__init__")
    with layer_tracer.installed(tracer):
        yield spent
    after = tracer.inclusive("Session.__init__")
    spent[:] = [after[0] - before[0], after[1] - before[1]]


def _iterate(
    run: Run, variant: int, sampled: bool, scope: Callable = _session_timer
) -> Iteration:
    registry = MetricsRegistry()
    results: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    digest = hashlib.sha256()
    sampler = speed.SpeedSampler() if sampled else nullcontext()
    with scope() as spent, use_registry(registry):
        start = time.perf_counter()
        with sampler:
            for art in run.variants[variant]:
                try:
                    results[art.name] = result = art.run()
                    rendered = result.table()
                except Exception as exc:  # one artifact failing must not stop the run
                    errors[art.name] = type(exc).__name__
                    rendered = f"raised {type(exc).__name__}"
                    traceback.print_exc(file=sys.stderr)
                digest.update(f"{art.name}\n{rendered}\n".encode())
        raw = time.perf_counter() - start
    wall = raw
    if sampled:
        raw, wall = sampler.raw_s(), sampler.normalized_s()
    return Iteration(variant, wall, raw, spent[0] * _ratio(wall, raw), spent[1],
                     digest.hexdigest(), errors, results, registry)


def _repeat(
    run: Run, deadline: float, sampled: bool, scope: Callable = _session_timer
) -> List[Iteration]:
    """Iterations cycling through the inputs until the next one would
    end past ``deadline`` (a ``perf_counter`` reading)."""
    inputs = len(run.variants)
    # With several inputs, one full cycle plus one repeat, so a digest
    # can repeat.
    minimum = inputs + 1 if inputs > 1 else 1
    out: List[Iteration] = []
    took: List[float] = []
    while len(out) < minimum or time.perf_counter() + statistics.mean(took) < deadline:
        # Collect the last iteration's garbage outside ``scope``: closing
        # its abandoned generators runs their ``finally`` blocks, which
        # send messages the tracer would otherwise count.
        gc.collect()
        start = time.perf_counter()
        out.append(_iterate(run, len(out) % inputs, sampled, scope))
        took.append(time.perf_counter() - start)
    return out


def import_seconds() -> List[float]:
    """Normalised seconds to import ``repro.experiments`` in
    :data:`IMPORT_PROBES` fresh interpreters, run one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, before, after = map(float, proc.stdout.split()[-3:])
        out.append(took * speed.NOMINAL_S * 2 / (before + after))
    return out


def measure(
    build: Callable[[int], Sequence[Artifact]],
    seeds: Sequence[int],
    seconds: float,
    trace: bool = False,
) -> Run:
    """Run the workloads ``build`` returns for the input ``seeds`` (a
    traced run uses the first only; see the module docstring)."""
    deadline = time.perf_counter() + seconds
    seeds = list(seeds[:1] if trace else seeds)
    run = Run(seeds, [build(s) for s in seeds])
    if trace:
        gc.collect()
        run.iterations = [_iterate(run, 0, sampled=False)]
        run.tracer = tracer = layer_tracer.LayerTracer()
        run.traced = _repeat(run, deadline, sampled=False,
                             scope=lambda: _traced(tracer))
    else:
        run.fig2_log_err = workloads.calibration_error()
        run.import_s = import_seconds()
        run.iterations = _repeat(run, deadline, sampled=True)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


# -- metrics -------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_input(its: Sequence[Iteration], value: Callable[[Iteration], float]) -> float:
    """Mean over inputs of the median over that input's iterations."""
    by_input: Dict[int, List[float]] = {}
    for it in its:
        by_input.setdefault(it.variant, []).append(value(it))
    return statistics.mean(statistics.median(v) for v in by_input.values())


def _operations(it: Iteration) -> Tuple[float, float]:
    """(failed, attempted) operations of one iteration: simulated
    transfers, discoveries and swarm downloads, plus artifact runs."""
    def counter(name: str) -> float:
        return it.registry.counter(name).value

    failed = (counter("overlay.transfers_cancelled")
              + counter("overlay.discovery_failures")
              + counter("swarm.downloads_failed") + len(it.errors))
    attempted = (counter("overlay.transfers_ok")
                 + counter("overlay.transfers_cancelled")
                 + counter("overlay.discovery_attempts")
                 + counter("swarm.downloads_ok")
                 + counter("swarm.downloads_failed")
                 + len(it.results) + len(it.errors))
    return failed, attempted


def end_to_end(run: Run) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    its = run.iterations
    return {
        "wall_s": _per_input(its, lambda i: i.wall_s),
        "setup_s": statistics.median(run.import_s)
        + _per_input(its, lambda i: i.session_init_s),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": _per_input(its, lambda i: 1.0 - _ratio(*_operations(i))),
        "fig2_log_err": run.fig2_log_err,
    }


def per_layer(run: Run) -> Dict[str, float]:
    """The per-layer metrics of a traced run, per iteration."""
    tr = run.tracer
    n = len(run.traced)
    reg = run.traced[-1].registry

    def counter(name: str) -> float:
        return reg.counter(name).value

    self_s = {layer: s / n for layer, s in tr.self_seconds().items()}
    traced_wall = sum(i.wall_s for i in run.traced) / n
    untraced_wall = run.iterations[0].wall_s

    events = counter("kernel.events_processed")
    msgs = counter("net.messages_sent")
    by_type = {name: count / n for name, count in tr.messages.items()}
    liveness = sum(by_type.get(t, 0) for t in _BEACONS + _SWIM)
    overlay_liveness = sum(
        s for (layer, q, _p), (_c, s, _t) in tr.spans.items()
        if layer == "overlay" and ("keepalive" in q or "stat_report" in q)
    ) / n
    touched = reg.histogram("flow.touched_per_reconcile")
    proven = counter("swarm.parts_proven")
    duplicates = counter("swarm.duplicate_parts")
    selections = tr.selections / n

    out = {f"{layer}.self_s": s for layer, s in self_s.items()}
    out.update({
        "kernel.events": events,
        "kernel.events_per_s": _ratio(events, untraced_wall),
        "kernel.ns_per_event": _ratio(untraced_wall * 1e9, events),
        "kernel.resumes": tr.resumes / n,
        "kernel.cancelled": counter("kernel.events_cancelled"),
        "kernel.agenda_max": reg.gauge("kernel.agenda_depth").max_value,
        "transport.msgs": msgs,
        "transport.us_per_msg": _ratio(self_s["transport"] * 1e6, msgs),
        "transport.delivered_frac": _ratio(msgs - counter("net.messages_lost"), msgs),
        "transport.liveness_share": _ratio(liveness, sum(by_type.values())),
        **{f"transport.msgs.{t}": by_type.get(t, 0) for t in _BEACONS + _SWIM[:2]},
        "transport.msgs.transfer": sum(by_type.get(t, 0) for t in _TRANSFER_MSGS),
        "transport.retransmissions": counter("net.retransmissions"),
        "flows.started": counter("flow.started"),
        "flows.reconciles": counter("flow.reconciles"),
        "flows.touched_mean": _ratio(touched.sum, touched.count),
        "overlay.liveness_self_s": overlay_liveness,
        "overlay.petitions": counter("overlay.petition_attempts"),
        "overlay.transfers_ok": counter("overlay.transfers_ok"),
        "overlay.transfers_cancelled": counter("overlay.transfers_cancelled"),
        "overlay.request_timeouts": counter("peer.request_timeouts"),
        "selection.calls": selections,
        "selection.us_per_call": _ratio(self_s["selection"] * 1e6, selections),
        "selection.candidates_mean": _ratio(tr.candidates / n, selections),
        "gossip.probes": counter("gossip.probes"),
        "gossip.ping_reqs": counter("gossip.ping_reqs"),
        "gossip.rumors_sent": counter("gossip.rumors_sent"),
        "gossip.false_suspects": counter("gossip.false_suspects"),
        "swarm.parts_proven": proven,
        "swarm.duplicate_parts": duplicates,
        "swarm.useful_frac": _ratio(proven, proven + duplicates),
        "swarm.downloads_failed": counter("swarm.downloads_failed"),
        "recovery.resumes": counter("recovery.resumes"),
        "recovery.failovers": counter("recovery.failovers"),
        "faults.episodes": counter("fault.episodes"),
        "experiments.sessions": run.traced[-1].sessions,
        "experiments.session_init_s": sum(i.session_init_s for i in run.traced) / n,
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.coverage": _ratio(sum(self_s.values()), traced_wall),
    })
    return out


# -- checks and the record -----------------------------------------------------

def host() -> Dict[str, Any]:
    """Fingerprint of the machine and checkout the numbers come from."""
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        rev = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
    }


def report(name: str, seed: int, seconds: float, run: Run) -> Dict[str, Any]:
    """The run's record: metrics, checks, failure accounting, provenance."""
    everything = run.iterations + run.traced
    last: Dict[int, Iteration] = {it.variant: it for it in everything}
    digests: Dict[int, set] = {}
    for it in everything:
        digests.setdefault(it.variant, set()).add(it.digest)
    checked = [
        (run.seeds[v], art.name, c)
        for v, it in sorted(last.items())
        for art in run.variants[v]
        if art.check is not None and art.name in it.results
        for c in art.check(it.results[art.name])
    ]
    unmet = [(s, a, c.text) for s, a, c in checked if c.enforced and not c.ok]
    # Failed = artifact runs that raised, plus each (input, artifact)
    # whose output broke an enforced criterion.
    failed = sum(len(i.errors) for i in everything) + len({u[:2] for u in unmet})
    attempted = sum(len(run.variants[i.variant]) for i in everything)
    repeatable = all(len(d) == 1 for d in digests.values())
    metrics = per_layer(run) if run.tracer is not None else end_to_end(run)
    record = {
        "workload": name,
        "seed": seed,
        "inputs": run.seeds,
        "seconds": seconds,
        "trace": run.tracer is not None,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in workloads.SIZES.get(name, {}).items()},
        "host": host(),
        "artifacts": [a.name for a in run.variants[0]],
        "iterations": len(run.iterations),
        "traced_iterations": len(run.traced),
        "iteration_seed": [run.seeds[i.variant] for i in everything],
        "iteration_wall_s": [i.wall_s for i in everything],
        "iteration_raw_s": [i.raw_s for i in everything],
        "import_s": run.import_s,
        "result_digest": min(digests[0]) if len(digests[0]) == 1 else None,
        "digests": {str(run.seeds[v]): sorted(d) for v, d in sorted(digests.items())},
        "errors": sorted({f"{a}: {e}" for i in everything for a, e in i.errors.items()}),
        "criteria": [dict(c._asdict(), seed=s, artifact=a) for s, a, c in checked],
        "unmet": [f"seed {s}: {text}" for s, _a, text in unmet],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and repeatable,
        "metrics": metrics,
    }
    if run.tracer is not None:
        record["layer_self_s"] = {
            layer: metrics[f"{layer}.self_s"] for layer in layer_tracer.LAYERS
        }
        record["top_spans"] = run.tracer.top()
    return record
