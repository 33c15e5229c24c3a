"""repro.simlint — AST-based determinism & simulation-safety linter.

The repo's headline guarantee — bit-for-bit same-seed reproducibility
of metrics JSON and event traces — is one stray ``time.time()``,
global ``random`` draw, or unordered-``set`` iteration away from
silently breaking.  This package enforces those invariants statically
(stdlib ``ast`` only, no dependencies):

* a per-file rule registry (:data:`repro.simlint.rules.RULES`,
  SIM001–SIM007),
* a whole-program rule pack
  (:data:`repro.simlint.project_rules.PROJECT_RULES`, SIM010–SIM014)
  over a cross-module :class:`~repro.simlint.project.ProjectIndex`
  built from the same single parse of each file,
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
    lint_source,
)
from repro.simlint.findings import Finding
from repro.simlint.project import (
    FileIndex,
    ProjectIndex,
    build_project_index,
    index_source,
    lint_project,
)
from repro.simlint.project_rules import PROJECT_RULES, PROJECT_RULES_BY_ID
from repro.simlint.rules import RULES, RULES_BY_ID

__all__ = [
    "FileIndex",
    "Finding",
    "LintError",
    "LintResult",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_ID",
    "ProjectIndex",
    "RULES",
    "RULES_BY_ID",
    "build_project_index",
    "classify_scope",
    "index_source",
    "lint_project",
    "lint_source",
]
