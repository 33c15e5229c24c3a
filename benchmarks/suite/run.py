"""Run one workload of the repository benchmark and print its metrics.

    python3 benchmarks/suite/run.py --workload paper --seed 2007 \\
        --seconds 15 --trace 0 [--out record.json]

Run from any directory; the program is imported from ``src/`` of the
checkout this file lives in.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones, each as
``workload metric value unit``; lines starting with ``#`` are notes
(digest, criteria, errors).  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
also writes the full record: seed, config, host, git rev, digests,
criteria and every iteration's time.

Exit status: 0 when every check passed, 1 when one failed or the run
was still going :data:`GRACE_S` after ``--seconds`` (it then prints the
stack to stderr and no result), 2 when the program's source is not in
the checkout.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Seconds past ``--seconds`` after which a run counts as hung: a change
#: can make a vetted input run forever, as seeds 48 and 68 make Fig. 7
#: do now.  ``SIGALRM`` is taken by ``speed.SpeedSampler``, so
#: faulthandler's watchdog thread ends the process.
GRACE_S = 150.0


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from benchmarks.suite import measure, workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    faulthandler.dump_traceback_later(args.seconds + GRACE_S, exit=True,
                                      file=sys.__stderr__)
    try:
        run = measure.measure(lambda seed: workloads.build(args.workload, seed),
                              workloads.inputs(args.seed), args.seconds,
                              trace=bool(args.trace))
    finally:
        faulthandler.cancel_dump_traceback_later()
    record = measure.report(args.workload, args.seed, args.seconds, run)
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    record["metrics"] = metrics

    w = args.workload
    print(f"# {w} seed {args.seed}: {record['iterations']} untraced and "
          f"{record['traced_iterations']} traced iterations over input seeds "
          f"{record['inputs']}, result_digest {record['result_digest']}")
    for text in record["unmet"]:
        print(f"# {w} CHECK FAILED: {text}")
    for text in record["errors"]:
        print(f"# {w} RAISED {text}")
    for seed, digests in record["digests"].items():
        if len(digests) > 1:
            print(f"# {w} NOT REPEATABLE: input {seed} gave {len(digests)} digests")
    unenforced = [c for c in record["criteria"] if not c["enforced"]]
    if unenforced:
        met = sum(c["ok"] for c in unenforced)
        print(f"# {w} reported (not enforced) criteria met: {met}/{len(unenforced)}")
    for name, m in metrics.items():
        print(f"{w} {name} {m['value']!r} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
