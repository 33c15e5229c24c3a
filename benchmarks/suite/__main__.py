"""Run every workload of the benchmark, one fresh process at a time.

    PYTHONPATH=src python -m benchmarks.suite --seed 2007 [--trace] \\
        [--seconds N] [--out FILE]

Each workload runs in its own child (``run.py``), so only one core is
busy at a time.  ``--trace`` adds a traced run of each workload.  The
children's metric lines are printed as they finish; ``--out`` writes
every child's full record into one JSON file, which ``compare.py``
reads.  Exits non-zero when any child failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Layout tag of the ``--out`` file.
SCHEMA = "benchmarks.suite/v1"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced")
    parser.add_argument("--out", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    status = 0
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1) if args.trace else (0,):
                out = Path(tmp) / f"{workload}-{trace}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", str(out)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True,
                )
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if proc.returncode != 0:
                    print(f"# {workload} exited {proc.returncode}", flush=True)
                    status = 1
                if out.exists():
                    kind = "traced" if trace else "untraced"
                    records.setdefault(workload, {})[kind] = json.loads(
                        out.read_text()
                    )
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
             "workloads": records},
            indent=1,
        ) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
