"""Finding reporters: human text, machine JSON, GitHub annotations.

The GitHub format emits `workflow command
<https://docs.github.com/actions/using-workflows/workflow-commands>`_
lines (``::error file=...,line=...``) so CI findings annotate the diff
view directly.
"""

from __future__ import annotations

import json

from repro.simlint.engine import LintResult

__all__ = ["render_text", "render_json", "render_github", "REPORTERS"]


def _summary(result: LintResult) -> str:
    bits = [
        f"{result.files} file(s) checked",
        f"{len(result.findings)} finding(s)",
    ]
    if result.suppressed:
        bits.append(f"{len(result.suppressed)} suppressed")
    return "simlint: " + ", ".join(bits)


def render_text(result: LintResult) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in result.findings
    ]
    if lines:
        lines.append("")
    lines.append(_summary(result))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "files": result.files,
        },
        indent=2,
    )


def render_github(result: LintResult) -> str:
    """GitHub workflow-command annotations, one per finding."""
    lines = [
        f"::error file={f.path},line={f.line},col={f.col + 1},"
        f"title={f.rule}::{f.message}"
        for f in result.findings
    ]
    lines.append(_summary(result))
    return "\n".join(lines)


REPORTERS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}
