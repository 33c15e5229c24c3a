"""Compare two sets of benchmark records: a parent commit and a change.

    python3 benchmarks/suite/compare.py PARENT/*.json CHANGE/*.json

Files are grouped by directory: the first directory named holds the
parent's records, the second the change's.  A file is one ``run.py
--out`` record, a ``python -m benchmarks.suite --out`` file holding
every workload, or a file with a ``runs`` list of records such as
``baseline-2cpu.json``.

For each workload and end-to-end metric it prints each side's median,
quartiles and run count, the pairs the change won (runs paired in seed
order, so both sides should run the same seeds; ties count for
neither side) and a verdict, using the bounds in ``BENCHMARK.json``:

* **unresolved** - the parent's quartile spread is wider than the
  bound and not every change run beats every parent run, or the
  change would count as improved but fails more than the parent;
* **improved** - every change run beats every parent run (when the
  spread is wider than the bound), or the change won at least nine
  tenths of the pairs and the medians differ by more than the
  parent's quartile spread;
* **regressed** - the change's median is worse than the parent's by
  more than the bound;
* **unchanged** - otherwise.

The change fails more than the parent on a workload when one of its
runs is not correct, or at some seed it has more failed artifact runs
or a lower ``ok_frac``; a gain does not count then.  Seed by seed, it
also flags any result digest that differs between the two sides, and
any metric computed from counts alone that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(paths: Sequence[Path]) -> Dict[str, Dict[str, List[dict]]]:
    """workload -> {"untraced": [records], "traced": [records]}."""
    out: Dict[str, Dict[str, List[dict]]] = {}
    for path in paths:
        data = json.loads(path.read_text())
        if "workload" in data:
            records = [data]
        elif "runs" in data:
            records = data["runs"]
        else:
            records = [r for kinds in data["workloads"].values() for r in kinds.values()]
        for record in records:
            kind = "traced" if record["trace"] else "untraced"
            out.setdefault(record["workload"], {"untraced": [], "traced": []})[kind].append(record)
    for kinds in out.values():
        for records in kinds.values():
            records.sort(key=lambda r: r["seed"])
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float,
            fails_more: bool = False) -> Tuple[str, int, int]:
    """(verdict, pairs the change won, pairs compared)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    if pm and (p3 - p1) / pm > bound:
        word = "improved" if all_better else "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        word = "improved"
    elif worse_by > bound:
        word = "regressed"
    else:
        word = "unchanged"
    if word == "improved" and fails_more:
        word = "unresolved"
    return word, wins, len(pairs)


def more_failures(parent: Sequence[dict], change: Sequence[dict]) -> List[str]:
    """Where the change's runs of one workload fail more than the parent's."""
    by_seed = {r["seed"]: r for r in parent}
    out = []
    for b in change:
        at = f"seed {b['seed']}"
        if not b["correct"]:
            out.append(f"{at}: the change's run is not correct")
        a = by_seed.get(b["seed"])
        if a is None:
            continue
        if b["failed"] > a["failed"]:
            out.append(f"{at}: failed {a['failed']} -> {b['failed']}")
        if "ok_frac" in a["metrics"] and "ok_frac" in b["metrics"]:
            old, new = (r["metrics"]["ok_frac"]["value"] for r in (a, b))
            if new < old:
                out.append(f"{at}: ok_frac {old} -> {new}")
    return out


def exact_metrics(spec: dict) -> List[str]:
    """Metrics computed from counts alone: they repeat exactly at a seed."""
    return ["ok_frac", "fig2_log_err"] + [
        m["name"] for m in spec["per_layer"]
        if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")
    ]


def _groups(paths: Sequence[str]) -> List[List[Path]]:
    groups: Dict[Path, List[Path]] = {}
    for name in paths:
        path = Path(name)
        groups.setdefault(path.resolve().parent, []).append(path)
    return list(groups.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="PARENT/*.json CHANGE/*.json")
    args = parser.parse_args(argv)
    groups = _groups(args.files)
    if len(groups) != 2:
        parser.error(f"need files from exactly two directories, got {len(groups)}")
    parent, change = (load(sorted(g)) for g in groups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = exact_metrics(spec)

    print(f"{'workload':18} {'metric':12} {'parent med [q1, q3] n':34} "
          f"{'change med [q1, q3] n':34} {'wins':>7}  verdict")
    flags: List[str] = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload]["untraced"], change[workload]["untraced"]
        failing = [
            f"{workload} {kind} {text}"
            for kind in ("untraced", "traced")
            for text in more_failures(parent[workload][kind], change[workload][kind])
        ]
        flags += failing
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            if not p or not c:
                continue
            word, wins, n = verdict(p, c, m["better"], m["bound"], bool(failing))
            cells = []
            for values in (p, c):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            print(f"{workload:18} {m['name']:12} {cells[0]:34} {cells[1]:34} "
                  f"{wins:>3}/{n:<3}  {word}")
        for kind in ("untraced", "traced"):
            by_seed = {r["seed"]: r for r in change[workload][kind]}
            for a in parent[workload][kind]:
                b = by_seed.get(a["seed"])
                if b is None:
                    continue
                where = f"{workload} seed {a['seed']}"
                if a["result_digest"] != b["result_digest"]:
                    flags.append(f"{where}: result_digest differs")
                for name in exact:
                    if name in a["metrics"] and name in b["metrics"]:
                        old, new = (r["metrics"][name]["value"] for r in (a, b))
                        if old != new:
                            flags.append(f"{where}: {name} {old} -> {new}")
    for flag in flags:
        print(f"FLAG {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
