"""simlint benchmark: full-tree wall-time budget.

The linter gates CI on every push, so its own cost is a perf surface:
this benchmark lints the real ``src`` + ``tests`` + ``benchmarks``
tree with every rule and asserts that the run (every file read and
parsed fresh — simlint keeps no state between runs) completes inside
a wall-time budget sized for the CI runner.  A second run is timed
too and must report the same findings.

Budgets are deliberately loose (CI runners are noisy); the point is
to catch an accidental superlinear regression, not to microbenchmark.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.simlint import lint_project

from .conftest import emit

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Wall-time ceiling for the cold full-tree pass.  The measured run is
#: about 4s on a 2-vCPU host; 60s keeps headroom for slow shared
#: runners while still catching complexity regressions.
COLD_BUDGET_S = 60.0
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def test_full_tree_pass_within_budget():
    t0 = time.perf_counter()  # simlint: disable=SIM001 -- measured lint wall-time is the benchmark subject
    cold_result = lint_project(["src", "tests", "benchmarks"], root=REPO_ROOT)
    cold_s = time.perf_counter() - t0  # simlint: disable=SIM001 -- measured lint wall-time is the benchmark subject

    t0 = time.perf_counter()  # simlint: disable=SIM001 -- measured lint wall-time is the benchmark subject
    warm_result = lint_project(["src", "tests", "benchmarks"], root=REPO_ROOT)
    warm_s = time.perf_counter() - t0  # simlint: disable=SIM001 -- measured lint wall-time is the benchmark subject

    emit(
        "simlint full-tree pass",
        f"files          {cold_result.files}\n"
        f"cold           {cold_s:6.2f}s "
        f"({cold_result.files / max(cold_s, 1e-9):5.0f} files/s)\n"
        f"warm           {warm_s:6.2f}s "
        f"({warm_result.files / max(warm_s, 1e-9):5.0f} files/s)\n"
        f"findings       {len(cold_result.findings)}",
    )

    assert cold_result.files > 150, "expected the whole tree, got a subset"
    assert cold_s < COLD_BUDGET_S, (
        f"cold full-tree simlint took {cold_s:.1f}s "
        f"(budget {COLD_BUDGET_S:.0f}s) — a rule or the driver regressed?"
    )
    assert warm_result.findings == cold_result.findings
