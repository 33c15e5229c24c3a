"""The simlint analysis engine.

One :class:`ModuleInfo` per linted file carries everything the rules
need: the parsed AST, an import-alias map (so ``np.random.seed``
resolves to ``numpy.random.seed`` whatever numpy was imported as),
which function nodes are generators (kernel ``Process`` bodies),
which names/attributes are statically known to be ``set``-typed, and
the inline-suppression table scanned from comments.  Each file is
parsed once, and every rule reads the same :class:`ModuleInfo`.
:func:`lint_project` is the driver over a set of files.

Suppressions
------------

``# simlint: disable=SIM001`` on any physical line of a flagged
statement suppresses that rule there; ``disable=SIM001,SIM003``
suppresses several, a bare ``disable`` suppresses everything on the
line, and ``disable-file=SIM004`` anywhere in the file suppresses a
rule file-wide.  Everything after ``--`` is a free-form justification
(conventionally mandatory: an unexplained suppression is a review
smell)::

    started = time.perf_counter()  # simlint: disable=SIM001 -- measured wall-clock, not sim time
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.simlint.findings import Finding

__all__ = [
    "LintError",
    "LintResult",
    "ModuleInfo",
    "classify_scope",
    "Suppressions",
    "iter_python_files",
    "lint_module",
    "lint_project",
    "lint_source",
    "select_rules",
]

#: Marker for "all rules" in a suppression entry.
ALL_RULES = "*"

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?P<filewide>-file)?"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*))?"
)

_SET_ANNOTATION_RE = re.compile(
    r"^(?:typing\.)?(?:Set|FrozenSet|set|frozenset)\b"
)


class LintError(Exception):
    """A file could not be analysed (unreadable / syntax error)."""


# ---------------------------------------------------------------------------
# Module analysis
# ---------------------------------------------------------------------------


class ModuleInfo:
    """Parsed module plus the pre-computed facts rules consume."""

    def __init__(self, source: str, path: str, scope: str) -> None:
        self.source = source
        self.path = path
        self.scope = scope
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: {exc.msg} (line {exc.lineno})") from exc
        self.imports: Dict[str, str] = {}
        #: id(node) of FunctionDef/AsyncFunctionDef nodes that are
        #: generators (contain a yield at their own nesting level).
        self.generator_funcs: Set[int] = set()
        #: id(node) of function nodes carrying any decorator (pytest
        #: fixtures, contextmanagers, ... — not kernel processes).
        self.decorated_funcs: Set[int] = set()
        #: Set-typed bindings: module-level names, per-class ``self.x``
        #: attributes, and per-function locals.  Conservative: a name
        #: ever assigned a non-set value is vetoed.
        self.module_sets: Set[str] = set()
        self.class_sets: Dict[str, Set[str]] = {}
        self.local_sets: Dict[int, Set[str]] = {}
        stmt_spans = self._collect_facts()
        _SetBindingCollector(self).visit(self.tree)
        self.suppressions = Suppressions(source, stmt_spans)

    def _collect_facts(self) -> List[Tuple[int, int]]:
        """One walk for imports, generator/decorated functions and the
        suppression span of every statement (:func:`_suppression_span`)."""
        spans: List[Tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            spans.append(_suppression_span(node))
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    self.imports[alias.asname or top] = (
                        alias.name if alias.asname else top
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.decorator_list:
                    self.decorated_funcs.add(id(node))
                if _has_own_yield(node):
                    self.generator_funcs.add(id(node))
        return spans

    # -- helpers for rules ------------------------------------------------

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted name, aliases expanded.

        ``np.random.seed`` -> ``numpy.random.seed`` when the module was
        imported as ``np``; returns None for non-Name-rooted chains.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def is_generator(self, func: ast.AST) -> bool:
        return id(func) in self.generator_funcs

    def is_decorated(self, func: ast.AST) -> bool:
        return id(func) in self.decorated_funcs

    def is_set_typed(
        self,
        node: ast.AST,
        func_stack: Sequence[ast.AST],
        class_name: Optional[str],
    ) -> Optional[str]:
        """Name of the set-typed binding ``node`` reads, if known.

        ``func_stack`` is the lexical chain of enclosing functions
        (outermost first); ``class_name`` the enclosing class, used to
        resolve ``self.x`` attribute reads.
        """
        if isinstance(node, ast.Name):
            for func in reversed(func_stack):
                if node.id in self.local_sets.get(id(func), ()):
                    return node.id
            if node.id in self.module_sets:
                # Module-level sets are readable from any scope.
                return node.id
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and class_name is not None
            and node.attr in self.class_sets.get(class_name, ())
        ):
            return f"self.{node.attr}"
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            end_line=getattr(node, "end_lineno", None) or getattr(node, "lineno", 1),
        )


def _has_own_yield(func: ast.AST) -> bool:
    """True when ``func`` yields at its own level (not a nested def)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def is_set_expr(node: Optional[ast.AST]) -> bool:
    """Syntactically a set: display, comprehension, set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


def annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed ASTs
        return False
    return bool(_SET_ANNOTATION_RE.match(text.strip()))


class _SetBindingCollector(ast.NodeVisitor):
    """Records which names are (only ever) bound to sets, per scope."""

    def __init__(self, mod: ModuleInfo) -> None:
        self.mod = mod
        self._func_stack: List[ast.AST] = []
        self._class_stack: List[str] = []
        self._vetoed_module: Set[str] = set()
        self._vetoed_class: Dict[str, Set[str]] = {}
        self._vetoed_local: Dict[int, Set[str]] = {}

    # -- scope bookkeeping --------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.mod.class_sets.setdefault(node.name, set())
        self.generic_visit(node)
        self._class_stack.pop()

    # -- bindings -----------------------------------------------------------

    def _record(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            if self._func_stack:
                key = id(self._func_stack[-1])
                bucket = self.mod.local_sets.setdefault(key, set())
                veto = self._vetoed_local.setdefault(key, set())
            elif self._class_stack:
                cls = self._class_stack[-1]
                bucket = self.mod.class_sets.setdefault(cls, set())
                veto = self._vetoed_class.setdefault(cls, set())
            else:
                bucket = self.mod.module_sets
                veto = self._vetoed_module
            name = target.id
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            cls = self._class_stack[-1]
            bucket = self.mod.class_sets.setdefault(cls, set())
            veto = self._vetoed_class.setdefault(cls, set())
            name = target.attr
        else:
            return
        if is_set:
            bucket.add(name)
        else:
            veto.add(name)
            bucket.discard(name)
        if name in veto:
            bucket.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, is_set_expr(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if annotation_is_set(node.annotation):
            self._record(node.target, True)
        elif _is_set_dataclass_field(node):
            self._record(node.target, True)
        elif node.value is not None:
            self._record(node.target, is_set_expr(node.value))
        self.generic_visit(node)


def _is_set_dataclass_field(node: ast.AnnAssign) -> bool:
    """``x: Foo = field(default_factory=set)`` counts as set-typed."""
    value = node.value
    if not (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "field"
    ):
        return False
    for kw in value.keywords:
        if (
            kw.arg == "default_factory"
            and isinstance(kw.value, ast.Name)
            and kw.value.id in ("set", "frozenset")
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def scan_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse ``# simlint: disable`` comments.

    Returns ``(per_line, filewide)`` where ``per_line`` maps a physical
    line number to the rule ids disabled there (``"*"`` = all) and
    ``filewide`` is the set of rule ids disabled for the whole file.
    """
    per_line: Dict[int, Set[str]] = {}
    filewide: Set[str] = set()
    if "simlint:" not in source:
        # No comment can match; skip the tokenizer.
        return per_line, filewide
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        names = match.group("rules")
        rules = (
            {r.strip().upper() for r in names.split(",")}
            if names
            else {ALL_RULES}
        )
        if match.group("filewide"):
            filewide.update(rules)
        else:
            per_line.setdefault(tok.start[0], set()).update(rules)
    return per_line, filewide


def _suppression_span(node: ast.stmt) -> Tuple[int, int]:
    """The lines a suppression comment may sit on to cover ``node``.

    A simple statement spans all its physical lines.  A compound one
    (``for``, ``with``, ``def``, ...) spans its header only, up to the
    line before its body: a comment inside the body is about the body,
    not about a finding in the header.
    """
    if isinstance(node, ast.Match):
        first = node.cases[0].pattern if node.cases else None
    else:
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
    if first is not None:
        return node.lineno, max(node.lineno, first.lineno - 1)
    return node.lineno, node.end_lineno or node.lineno


class Suppressions:
    """One file's inline-suppression table."""

    def __init__(self, source: str, stmt_spans: List[Tuple[int, int]]) -> None:
        self.lines, self.filewide = scan_suppressions(source)
        #: ``(first, last)`` suppression span of every statement — a
        #: suppression on any physical line of a flagged simple
        #: statement, or of a flagged compound statement's header,
        #: covers it.  Only kept when there is a line suppression to
        #: widen to.
        self.stmt_spans = stmt_spans if self.lines else []

    def is_suppressed(self, finding: Finding) -> bool:
        filewide = self.filewide
        if ALL_RULES in filewide or finding.rule in filewide:
            return True
        if not self.lines:
            return False
        start, end = finding.line, finding.end_line
        # Widen to the smallest enclosing statement so a trailing
        # comment on any physical line of the statement counts.
        best: Optional[Tuple[int, int]] = None
        for lo, hi in self.stmt_spans:
            if lo <= finding.line <= hi:
                if best is None or (hi - lo) < (best[1] - best[0]):
                    best = (lo, hi)
        if best is not None:
            start, end = min(start, best[0]), max(end, best[1])
        for line in range(start, end + 1):
            rules = self.lines.get(line)
            if rules is not None and (ALL_RULES in rules or finding.rule in rules):
                return True
        return False


# ---------------------------------------------------------------------------
# Lint drivers
# ---------------------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of linting a set of files."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0

    def sorted(self) -> "LintResult":
        self.findings.sort(key=Finding.sort_key)
        self.suppressed.sort(key=Finding.sort_key)
        return self


def classify_scope(path: str) -> str:
    """Map a repo-relative path to a lint scope.

    ``tests/**`` -> ``test``, ``benchmarks/**`` -> ``bench``, anything
    else (library code, examples, scripts) -> ``sim``.
    """
    parts = Path(path).parts
    if "tests" in parts:
        return "test"
    if "benchmarks" in parts:
        return "bench"
    return "sim"


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list:
    """The active rules.

    ``select`` (None = every rule) and ``ignore`` are rule ids; an
    unknown id raises :class:`LintError`.
    """
    from repro.simlint.rules import RULES

    known = {rule.id for rule in RULES}

    def checked(raw: Optional[Iterable[str]]) -> Optional[Set[str]]:
        if raw is None:
            return None
        ids = {r.upper() for r in raw}
        unknown = ids - known
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        return ids

    wanted = checked(select)
    dropped = checked(ignore) or set()
    return [
        rule
        for rule in RULES
        if (wanted is None or rule.id in wanted) and rule.id not in dropped
    ]


def lint_module(mod: ModuleInfo, rules: Iterable, result: LintResult) -> None:
    """Run per-file ``rules`` over ``mod`` into ``result``."""
    for rule in rules:
        if mod.scope not in rule.scopes or mod.path.endswith(rule.exclude_paths):
            continue
        for finding in rule.check(mod):
            if mod.suppressions.is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)


def lint_source(
    source: str,
    path: str = "<memory>",
    scope: Optional[str] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint one module's source text."""
    mod = ModuleInfo(source, path, scope or classify_scope(path))
    result = LintResult(files=1)
    lint_module(mod, select_rules(select, ignore), result)
    return result.sorted()


def iter_python_files(paths: Sequence[str], root: Optional[Path] = None):
    """Yield ``(absolute, repo_relative)`` paths, deterministically."""
    root = (root or Path.cwd()).resolve()
    seen: Dict[Path, None] = {}
    for raw in paths:
        p = Path(raw)
        base = p if p.is_absolute() else root / p
        if base.is_dir():
            for f in sorted(base.rglob("*.py")):
                seen.setdefault(f.resolve(), None)
        elif base.suffix == ".py" and base.exists():
            seen.setdefault(base.resolve(), None)
        else:
            raise LintError(f"no such file or directory: {raw}")
    for f in seen:
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        yield f, rel


def lint_project(
    paths: Sequence[str],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``, in sorted order.

    ``select``/``ignore`` filter the rules (:func:`select_rules`).
    """
    rules = select_rules(select, ignore)
    result = LintResult()
    for abspath, rel in iter_python_files(paths, root=root):
        try:
            source = abspath.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{rel}: {exc}") from exc
        result.files += 1
        lint_module(ModuleInfo(source, rel, classify_scope(rel)), rules, result)
    return result.sorted()
