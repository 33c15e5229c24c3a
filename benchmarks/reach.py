"""Check that every ``repro`` function is entered by some study, CLI
path, example or benchmark workload, or is listed with a reason.

    PYTHONPATH=src python3 benchmarks/reach.py

Runs, in one process under a ``sys.settrace`` hook that records every
code object entered from the first import on:

* every CLI artifact at ``--reps 1`` (seed 2007);
* ``scale``, ``churn``, ``resilience`` and ``swarming`` under
  ``--federated``;
* every fault profile, with and without ``--recovery``;
* one ``--metrics-out`` and one ``--parallel 2`` run;
* one ``--config`` run whose saved config sets ``peer_config``, a
  ``fault_plan`` (one scheduled fault and both process forms),
  ``recovery`` and ``gossip``, so every config section round-trips;
* ``fig7`` at seed 68, where a lost task result makes the submitter
  ask again with a ``TaskQuery``;
* every script in ``examples/``;
* each benchmark workload (``benchmarks/suite``), untraced and traced,
  with its record built as ``run.py`` builds it.

Then prints every function or method under ``src/repro`` (simlint
aside) that none of them entered, by file, and a count.  Pool workers
of the ``--parallel`` run are forked children the hook does not
follow; they run the same per-cell code the serial runs enter.

New code is reached or listed: :data:`ALLOWLIST` names, by file and
qualified name, each function that stays although no run enters it,
with a one-line reason.  The script exits 1, printing the offenders,
when a never-entered function is not listed or when a listed one is
stale (now entered, or gone); otherwise it exits 0.  Takes about five
and a half minutes on a 2-vCPU host, most of it ``scale-large``.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Sub-packages left out of the count: simlint runs over the tree, not
#: inside a study.
SKIPPED = ("simlint",)
SEED = "2007"
#: The functions that stay although no run enters them.
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")

#: (file, first line, qualified name) of one function.
Key = Tuple[str, int, str]


def _functions(code: CodeType, prefix: str = "") -> Iterator[Tuple[CodeType, str]]:
    """``code``'s nested function code objects with their qualified
    names, lambdas and comprehensions aside (class bodies are walked,
    not listed).  The names are built here, as ``co_qualname`` would
    give them, so that the allowlist test also runs on Python 3.10."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            qualname = prefix + const.co_name
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function body
                if not const.co_name.startswith("<"):
                    yield const, qualname
                yield from _functions(const, qualname + ".<locals>.")
            else:
                yield from _functions(const, qualname + ".")


def _key(code: CodeType) -> Key:
    return (str(Path(code.co_filename).resolve()), code.co_firstlineno,
            code.co_qualname)


def defined() -> Dict[Key, int]:
    """Every function under :data:`PACKAGE` -> its length in lines."""
    out: Dict[Key, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] in SKIPPED:
            continue
        module = compile(path.read_text(), str(path.resolve()), "exec")
        for code, qualname in _functions(module):
            last = max(line for _, _, line in code.co_lines() if line)
            key = (code.co_filename, code.co_firstlineno, qualname)
            out[key] = last - code.co_firstlineno + 1
    return out


def allowlist() -> List[Tuple[str, str, str]]:
    """:data:`ALLOWLIST`'s entries as (file under ``src/``, qualified
    name, reason), in file order.  An entry line reads
    ``repro/<file>.py <qualified name> -- <reason>``; blank lines and
    ``#`` comments are skipped."""
    out = []
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" -- ")
        fields = name.split()
        if len(fields) != 2:
            raise ValueError(f"{ALLOWLIST.name}:{n}: want '<file> <name> -- <reason>'")
        out.append((fields[0], fields[1], reason.strip()))
    return out


def _cli(*argv: str) -> Callable[[], object]:
    def run() -> object:
        from repro.__main__ import main
        from repro.perf.parallel import set_default_workers

        try:
            return main(list(argv))
        finally:
            set_default_workers(None)

    return run


def _example(path: Path) -> Callable[[], object]:
    def run() -> object:
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            return runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv

    return run


def _workload(name: str, trace: bool) -> Callable[[], object]:
    def run() -> object:
        from benchmarks.suite import measure, workloads

        seed = int(SEED)
        inputs = workloads.inputs(seed)[:1]
        record = measure.report(
            name, seed, 0.01,
            measure.measure(lambda s: workloads.build(name, s), inputs, 0.01,
                            trace=trace),
        )
        return json.dumps(record, default=str)

    return run


def runs(tmp: Path) -> List[Tuple[str, Callable[[], object]]]:
    """Every run the trace covers, as (label, thunk)."""
    from repro.__main__ import ARTIFACTS
    from repro.experiments import ExperimentConfig
    from repro.faults import (
        ExponentialChurn, FaultPlan, LinkDegrade, RandomWindows,
    )
    from repro.faults.profiles import PROFILES
    from repro.gossip.config import GossipConfig
    from repro.overlay.peer import PeerConfig
    from repro.recovery.config import RecoveryConfig

    config = tmp / "config.json"
    ExperimentConfig(
        seed=int(SEED), repetitions=1, peer_config=PeerConfig(),
        fault_plan=FaultPlan(
            name="reach",
            schedule=((5.0, LinkDegrade(target="SC4", bw_factor=0.5,
                                        duration_s=30.0)),),
            processes=(
                ExponentialChurn(targets=("SC6",), horizon_s=600.0),
                RandomWindows(fault=LinkDegrade(target="SC5", bw_factor=0.5),
                              horizon_s=600.0),
            ),
        ),
        recovery=RecoveryConfig(), gossip=GossipConfig(),
    ).save(config)
    out: List[Tuple[str, Callable[[], object]]] = []
    for name in ARTIFACTS:
        out.append((f"cli {name}", _cli(name, "--reps", "1", "--seed", SEED)))
    for name in ("scale", "churn", "resilience", "swarming"):
        out.append((f"cli {name} --federated",
                    _cli(name, "--federated", "--reps", "1", "--seed", SEED)))
    for profile in sorted(PROFILES):
        for extra in ((), ("--recovery",)):
            out.append((f"cli --faults {profile} {' '.join(extra)}",
                        _cli("--faults", profile, *extra, "--reps", "1",
                             "--seed", SEED)))
    out.append(("cli --metrics-out",
                _cli("fig2", "--reps", "1", "--metrics-out",
                     str(tmp / "metrics.json"))))
    out.append(("cli --config", _cli("fig3", "--config", str(config))))
    out.append(("cli --parallel 2", _cli("fig2", "--reps", "2", "--parallel", "2")))
    out.append(("cli fig7 --seed 68", _cli("fig7", "--reps", "5", "--seed", "68")))
    for path in sorted((ROOT / "examples").glob("*.py")):
        out.append((f"example {path.stem}", _example(path)))
    from benchmarks.suite import workloads

    for name in workloads.NAMES:
        for trace in (False, True):
            out.append((f"benchmark {name} trace={int(trace)}",
                        _workload(name, trace)))
    return out


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    functions = defined()
    entered: Dict[CodeType, None] = {}

    def hook(frame, event, arg, _mark=entered.setdefault):
        _mark(frame.f_code)  # a new frame: only "call" events reach here

    # Traced from the first import on: decorators and tables that run
    # at import time count as entered.
    sys.settrace(hook)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, thunk in runs(Path(tmp)):
                print(f"# {label}", file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    thunk()
    finally:
        sys.settrace(None)

    reached = {_key(code) for code in entered}
    missed = sorted(k for k in functions if k not in reached)
    listed = {(file, qualname) for file, qualname, _ in allowlist()}
    never, unlisted = set(), []
    for path, line, qualname in missed:
        rel = Path(path).relative_to(SRC).as_posix()
        print(f"{rel}:{line} {qualname} ({functions[(path, line, qualname)]} lines)")
        never.add((rel, qualname))
        if (rel, qualname) not in listed:
            unlisted.append(f"{rel}:{line} {qualname}")
    print(f"{len(missed)} of {len(functions)} functions never entered "
          f"({sum(functions[k] for k in missed)} lines)")
    stale = sorted(listed - never)
    for where in unlisted:
        print(f"NOT LISTED: {where} is never entered; reach it or list it "
              f"in {ALLOWLIST.name}")
    for file, qualname in stale:
        print(f"STALE: {file} {qualname} is listed in {ALLOWLIST.name} but "
              f"is entered or no longer exists")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
