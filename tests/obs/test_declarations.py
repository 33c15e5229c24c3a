"""Every declared metric and trace event is used by the program.

Unknown names are rejected at run time (``MetricsRegistry`` factories,
an enabled ``EventTrace.record``), but nothing at run time notices a
declaration that nothing creates any more.  This test does: each name
in :data:`~repro.obs.metric_catalog.METRICS` and
:data:`~repro.obs.trace_schema.TRACE_EVENTS` must appear as a string
literal in some ``src/repro`` module other than its declaration file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.obs.metric_catalog import METRICS
from repro.obs.trace_schema import TRACE_EVENTS

PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def literals():
    """File name -> the string literals of each ``src/repro`` module."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out[path.relative_to(PACKAGE).as_posix()] = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    return out


@pytest.mark.parametrize(
    "specs, declaration",
    [(METRICS, "obs/metric_catalog.py"), (TRACE_EVENTS, "obs/trace_schema.py")],
    ids=["metrics", "trace-events"],
)
def test_every_declared_name_is_used(literals, specs, declaration):
    used = set().union(
        *(names for path, names in literals.items() if path != declaration)
    )
    orphans = [spec.name for spec in specs if spec.name not in used]
    assert orphans == []
