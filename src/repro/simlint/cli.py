"""``python -m repro.simlint`` — the command-line front end.

Exit codes::

    0   no unsuppressed findings
    1   findings (the CI-gating outcome)
    2   usage error, unknown rule, unreadable/unparsable input

Typical invocations::

    python -m repro.simlint src benchmarks tests
    python -m repro.simlint src --format github          # CI annotations
    python -m repro.simlint src --select SIM010          # one rule
    python -m repro.simlint src --stats                  # timing, rule hits
    python -m repro.simlint --list-rules

Every run parses each file afresh and runs the rules on that one
parse.  The only way to exempt a finding is an inline
``# simlint: disable=SIM0xx -- reason`` comment.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.simlint.engine import LintError, LintResult, lint_project
from repro.simlint.reporters import REPORTERS
from repro.simlint.rules import RULES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simlint",
        description=(
            "AST-based determinism & simulation-safety linter for the "
            "repro codebase."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="repository root for relative paths (default: cwd)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print files/s and per-rule hit counts",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in RULES:
        scopes = ",".join(sorted(rule.scopes))
        lines.append(f"{rule.id}  {rule.title}  [scopes: {scopes}]")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _split_rules(raw: Optional[str], flag: str) -> Optional[List[str]]:
    """The rule ids of a ``--select``/``--ignore`` value (None if absent).

    An empty list (``""`` or ``","``) raises :class:`LintError`: as a
    select it would lint nothing and exit 0.
    """
    if raw is None:
        return None
    rules = [part.strip() for part in raw.split(",") if part.strip()]
    if not rules:
        raise LintError(f"{flag} needs at least one rule id, got {raw!r}")
    return rules


def _emit(text: str) -> None:
    """Print to stdout, tolerating a closed pipe (``... | head``)."""
    try:
        print(text)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass


def _render_stats(result: LintResult, elapsed: float) -> str:
    """The ``--stats`` block: throughput and rule hits."""
    rate = result.files / elapsed if elapsed > 0 else 0.0
    lines = [
        f"simlint stats: {result.files} file(s) in {elapsed:.2f}s "
        f"({rate:.0f} files/s)",
    ]
    hits: dict = {}
    for f in result.findings:
        hits[f.rule] = hits.get(f.rule, 0) + 1
    if hits:
        counts = ", ".join(f"{r}={n}" for r, n in sorted(hits.items()))
        lines.append(f"  rule hits: {counts}")
    else:
        lines.append("  rule hits: none")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(_list_rules())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "python -m repro.simlint: error: no paths given "
            "(try: src benchmarks tests)",
            file=sys.stderr,
        )
        return 2

    root = Path(args.root).resolve() if args.root else Path.cwd()
    started = time.perf_counter()  # simlint: disable=SIM001 -- measured lint wall-time for --stats, not simulated time
    try:
        result = lint_project(
            args.paths,
            root=root,
            select=_split_rules(args.select, "--select"),
            ignore=_split_rules(args.ignore, "--ignore"),
        )
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started  # simlint: disable=SIM001 -- measured lint wall-time for --stats, not simulated time

    _emit(REPORTERS[args.format](result))
    if args.stats:
        _emit(_render_stats(result, elapsed))
    return 1 if result.findings else 0
