"""Process-pool fan-out for embarrassingly parallel sweeps.

The contract is determinism-first: :func:`pmap` returns results in
task order regardless of which worker finished first, tasks must be
self-contained (everything a task needs rides in its picklable
payload; workers never share simulator state), and the serial
``workers=1`` path runs the very same worker callable in-process — so
a parallel run can be proven bit-identical to a serial one by
comparing outputs, not by trusting scheduling.

Worker counts resolve from, in order: an explicit argument, the
process-wide default set by :func:`set_default_workers` (the CLI's
``--parallel``), the ``REPRO_PARALLEL`` environment variable, else 1
(serial).  Inside a worker process the resolution is pinned to 1, so
a task that itself starts a sweep cannot fork a pool of its own.

Every experiment study reaches this module through one caller,
:func:`repro.experiments.runner.run_cells`, which flattens a study's
(cell, repetition) tasks into a single :func:`pmap` sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ConfigError

__all__ = [
    "available_cpus",
    "get_default_workers",
    "pmap",
    "resolve_workers",
    "set_default_workers",
]

#: Environment knob: default worker count ("auto" = one per CPU).
ENV_WORKERS = "REPRO_PARALLEL"
#: Set in worker processes; pins nested resolution to serial.
_ENV_IN_WORKER = "_REPRO_IN_WORKER"

_default_workers: Optional[int] = None


def available_cpus() -> int:
    """CPUs usable by a pool (>= 1 even when undetectable)."""
    return os.cpu_count() or 1


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process-wide default worker count (None = unset).

    ``0`` means "auto": one worker per available CPU.
    """
    global _default_workers
    if workers is not None and workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    _default_workers = workers


def get_default_workers() -> int:
    """The default worker count: :func:`set_default_workers`, else the
    ``REPRO_PARALLEL`` environment variable, else 1 (serial)."""
    if _default_workers is not None:
        return _default_workers or available_cpus()
    env = os.environ.get(ENV_WORKERS, "").strip()
    if not env:
        return 1
    if env.lower() == "auto":
        return available_cpus()
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"{ENV_WORKERS} must be an int or 'auto', got {env!r}")
    if n < 0:
        raise ConfigError(f"{ENV_WORKERS} must be >= 0, got {n}")
    return n or available_cpus()


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Effective pool size for ``n_tasks`` tasks (1 = run serially).

    ``workers=None`` falls back to :func:`get_default_workers`;
    ``workers=0`` means auto (one per CPU).  Inside a worker process
    the answer is always 1.
    """
    if os.environ.get(_ENV_IN_WORKER):
        return 1
    if workers is None:
        workers = get_default_workers()
    elif workers == 0:
        workers = available_cpus()
    elif workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return max(1, min(workers, n_tasks))


def picklable(obj: Any) -> bool:
    """True when ``obj`` survives a pickle round-trip requirement.

    Sweep entry points use this to fall back to the serial path for
    closure-built scenarios instead of failing mid-pool.
    """
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _init_worker() -> None:  # pragma: no cover - runs in the child
    os.environ[_ENV_IN_WORKER] = "1"


def pmap(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: Optional[int] = None,
) -> List[Any]:
    """Map ``fn`` over ``tasks`` on a process pool, in task order.

    With an effective worker count of 1 (or a single task) this is a
    plain in-process loop over the *same* callable — the reference
    path parallel runs are proven bit-identical against.  ``fn`` and
    every task must be picklable when a pool is used; ``chunksize=1``
    keeps heterogeneous tasks (cells of very different cost)
    load-balanced.
    """
    items = list(tasks)
    n = resolve_workers(workers, len(items))
    if n <= 1 or len(items) <= 1:
        return [fn(t) for t in items]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=n, initializer=_init_worker) as pool:
        return pool.map(fn, items, chunksize=1)
