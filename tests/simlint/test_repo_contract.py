"""The repo-wide static-analysis contract.

* ``src/`` + ``tests/`` + ``benchmarks/`` are clean under the full
  rule pack (SIM001–SIM007 and SIM010): among others, every RNG in
  library code derives from the session tree;
* every inline suppression in those trees carries a ``-- reason``;
* the metric catalog and the trace schema are well formed.  Names
  outside them are rejected where instruments are created and where
  an enabled trace records (``tests/obs``), and every declared name
  is used somewhere in ``src/repro`` (``tests/obs/test_declarations.py``);
* ``Finding.to_dict`` names every field (``end_line`` was once
  dropped).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.metric_catalog import METRIC_CATALOG, METRICS
from repro.obs.trace_schema import TRACE_EVENTS, TRACE_SCHEMA
from repro.simlint.findings import Finding
from repro.simlint import lint_project

REPO_ROOT = Path(__file__).resolve().parents[2]


LINTED_DIRS = ("src", "tests", "benchmarks")


@pytest.fixture(scope="module")
def repo_result():
    return lint_project(list(LINTED_DIRS), root=REPO_ROOT)


class TestRepoIsClean:
    def test_no_findings_under_full_rule_pack(self, repo_result):
        assert repo_result.findings == [], [
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in repo_result.findings
        ]

    def test_whole_tree_was_actually_linted(self, repo_result):
        assert repo_result.files > 150  # the tree, not a subset

    def test_every_suppression_carries_a_justification(self):
        # The acceptance bar: a suppression comment with no `-- reason`
        # tail is a review smell no tree CI lints may carry.  Only real
        # COMMENT tokens count (docstrings may *describe* the syntax).
        import io
        import tokenize

        from repro.simlint.engine import _SUPPRESS_RE

        offenders = []
        paths = sorted(
            path for top in LINTED_DIRS for path in (REPO_ROOT / top).rglob("*.py")
        )
        for path in paths:
            source = path.read_text(encoding="utf-8")
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(tok.string)
                if match is not None and "--" not in tok.string[match.end():]:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{tok.start[0]}"
                    )
        assert offenders == []


class TestDeclaredContracts:
    def test_metric_catalog_is_sorted_and_duplicate_free(self):
        names = [spec.name for spec in METRICS]
        assert len(names) == len(set(names))
        assert len(METRIC_CATALOG) == len(METRICS)

    def test_metric_kinds_are_valid(self):
        assert {spec.kind for spec in METRICS} <= {
            "counter",
            "gauge",
            "histogram",
        }

    def test_trace_schema_is_duplicate_free_with_tuple_fields(self):
        names = [spec.name for spec in TRACE_EVENTS]
        assert len(names) == len(set(names))
        assert len(TRACE_SCHEMA) == len(TRACE_EVENTS)
        for spec in TRACE_EVENTS:
            assert isinstance(spec.required, tuple) and spec.required

    def test_ci_asserted_metrics_are_catalogued(self):
        # ci.yml smoke jobs assert on these names; a catalog that
        # dropped them would green-light breaking CI's own checks.
        for name in (
            "fault.episodes",
            "fault.recovery_s",
            "recovery.transfers_recovered",
            "recovery.recovered_mbit",
            "recovery.failovers",
            "selection.degraded",
            "swarm.parts_proven",
            "swarm.downloads_ok",
            "swarm.downloads_failed",
        ):
            assert name in METRIC_CATALOG, name


class TestFindingRoundtrip:
    """Regression: ``Finding.to_dict`` used to drop ``end_line``."""

    def test_to_dict_mentions_every_field(self):
        import dataclasses

        f = Finding(
            rule="SIM001",
            path="src/x.py",
            line=3,
            col=0,
            message="m",
            end_line=7,
        )
        assert set(f.to_dict()) == {
            field.name for field in dataclasses.fields(Finding)
        }
