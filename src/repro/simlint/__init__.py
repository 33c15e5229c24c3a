"""repro.simlint — AST-based determinism & simulation-safety linter.

The repo's headline guarantee — bit-for-bit same-seed reproducibility
of metrics JSON and event traces — is one stray ``time.time()``,
global ``random`` draw, or unordered-``set`` iteration away from
silently breaking.  This package enforces those invariants statically
(stdlib ``ast`` only, no dependencies):

* a rule registry (:data:`repro.simlint.rules.RULES`, SIM001–SIM007
  and SIM010), every rule reading one parse of each file,
* inline ``# simlint: disable=SIM0xx -- reason`` suppressions, the
  one way to exempt a finding,
* text / JSON / GitHub-annotation reporters,
* a CLI: ``python -m repro.simlint src benchmarks tests``.

A run keeps no state: every file is read and parsed afresh.

Programmatic use::

    from repro.simlint import lint_source, lint_project

    result = lint_source("import time\\nt = time.time()\\n")
    assert result.findings[0].rule == "SIM001"

    result = lint_project(["src"])
"""

from repro.simlint.engine import (
    LintError,
    LintResult,
    classify_scope,
    lint_project,
    lint_source,
)
from repro.simlint.findings import Finding
from repro.simlint.rules import RULES, RULES_BY_ID

__all__ = [
    "Finding",
    "LintError",
    "LintResult",
    "RULES",
    "RULES_BY_ID",
    "classify_scope",
    "lint_project",
    "lint_source",
]
