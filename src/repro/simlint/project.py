"""Whole-program project index (simlint phase 1).

Per-file analysis (:mod:`repro.simlint.engine`) catches bugs a single
module exhibits on its own; the bug classes that actually threaten the
paper's same-seed comparability increasingly span modules — an RNG
seeded from a literal three files away from the session RNG tree, a
metric published under a name no catalog registers, a config dataclass
whose hand-rolled ``to_dict`` silently drops a field.  This module
builds the cross-module fact base those rules need:

* :class:`FileIndex` — one file's extracted facts, derived from the
  same :class:`~repro.simlint.engine.ModuleInfo` the per-file rules
  read: imports, RNG construction sites with seed lineage,
  metric/trace literals, catalog declarations, config dataclasses with
  their serialized key sets, generator functions with yield
  classifications, and the inline-suppression table.
* :class:`ProjectIndex` — the aggregation: module map, import graph,
  cross-file function resolution, and the propagated set of kernel
  *process* generators.
* :func:`lint_project` — the one lint driver: it parses each file
  once, runs the per-file rules on it, indexes it, then runs the
  cross-module rule pack (:mod:`repro.simlint.project_rules`) over the
  whole index.  Nothing is kept between runs.

Everything here is stdlib-only and deterministic: files are visited in
sorted order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.simlint.engine import (
    LintError,
    LintResult,
    ModuleInfo,
    Suppressions,
    classify_scope,
    iter_python_files,
    lint_module,
    select_rules,
)
from repro.simlint.findings import Finding

__all__ = [
    "FileIndex",
    "ProjectIndex",
    "build_project_index",
    "index_module",
    "index_source",
    "lint_project",
]

#: Wall-clock calls a seed expression must never derive from.
_WALL_CLOCK_SEEDS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "os.getpid",
        "uuid.uuid4",
    }
)

#: Attribute names whose call results a process generator may yield —
#: the kernel primitive factories (Simulator.process/timeout/... and
#: Resource.request/acquire).
_PRIMITIVE_ATTRS = frozenset(
    {
        "process",
        "timeout",
        "event",
        "any_of",
        "all_of",
        "call_at",
        "call_in",
        "request",
        "acquire",
    }
)

#: Instrument factory method names (the runtime publication surface).
_INSTRUMENT_KINDS = frozenset({"counter", "gauge", "histogram"})

#: Method names treated as the serialization pair of a config class.
_TO_NAMES = frozenset({"to_dict", "to_json"})
_FROM_NAMES = frozenset({"from_dict", "from_json"})


# ---------------------------------------------------------------------------
# Plain-data index records
# ---------------------------------------------------------------------------


@dataclass
class FileIndex:
    """One file's cross-module facts, as plain data."""

    path: str
    scope: str
    module: str
    #: Dotted targets of every import (aliases resolved).
    imported_modules: List[str] = field(default_factory=list)
    #: ``random.Random(...)`` (and friends) construction sites:
    #: ``{line, col, end_line, ctor, seed, detail}`` where ``seed`` is
    #: the lineage class — literal / wallclock / entropy / derived.
    rng_sites: List[dict] = field(default_factory=list)
    #: ``registry.counter("name")``-style literal publications:
    #: ``{name, kind, line, col, end_line}``.
    metric_sites: List[dict] = field(default_factory=list)
    #: ``tracer.record("event", t, k=v)`` literal emissions:
    #: ``{event, fields, star, line, col, end_line}``.
    trace_sites: List[dict] = field(default_factory=list)
    #: ``MetricSpec(name, kind, ...)`` declarations in catalog modules.
    catalog_metrics: List[dict] = field(default_factory=list)
    #: ``TraceEventSpec(name, (fields...), ...)`` declarations.
    catalog_traces: List[dict] = field(default_factory=list)
    #: Serializable config dataclasses: ``{name, line, fields,
    #: has_to, has_from, uses_asdict, serialized_strings, to_line}``.
    config_classes: List[dict] = field(default_factory=list)
    #: Every function/method: ``{qualname, line, is_generator,
    #: returns: [ref|None, ...]}`` (refs of returned calls).
    functions: List[dict] = field(default_factory=list)
    #: Callee refs handed to ``*.process(...)`` / ``Process(...)``,
    #: with the enclosing function: ``{func, ref}``.
    process_refs: List[dict] = field(default_factory=list)
    #: Yield sites inside generator functions: ``{func, line, col,
    #: end_line, kind, ref, detail}``.
    yield_sites: List[dict] = field(default_factory=list)
    #: ``yield from helper(...)`` delegation refs: ``{func, ref}``.
    yield_from_refs: List[dict] = field(default_factory=list)
    #: The file's inline-suppression table, shared with the per-file
    #: pass so cross-module findings honour the same comments.
    suppressions: Optional[Suppressions] = None


def _module_name(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/obs/metrics.py`` -> ``repro.obs.metrics``;
    ``tests/simlint/test_cli.py`` -> ``tests.simlint.test_cli``.
    """
    parts = list(Path(rel).parts)
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if not parts:
        return ""
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Per-file extraction
# ---------------------------------------------------------------------------


class _Ref:
    """Callee reference forms stored in the index (plain dicts)."""

    @staticmethod
    def local(name: str) -> dict:
        return {"base": "local", "name": name}

    @staticmethod
    def self_attr(cls: str, name: str) -> dict:
        return {"base": "self", "cls": cls, "name": name}

    @staticmethod
    def imported(dotted: str) -> dict:
        return {"base": "import", "name": dotted}


class _FileIndexer(ast.NodeVisitor):
    """Single pass extracting every cross-module fact from one module."""

    def __init__(self, idx: FileIndex, mod: ModuleInfo) -> None:
        self.idx = idx
        self.mod = mod
        self.dotted = mod.dotted_name
        #: Qualified names of the enclosing functions, innermost last.
        self.func_stack: List[str] = []
        self.class_stack: List[str] = []
        #: Per-function seed-lineage environments: name -> class.
        self.env_stack: List[Dict[str, str]] = [{}]
        #: Names assigned the random.Random constructor (aliasing).
        self.rng_ctor_names: Set[str] = set()

    # -- helpers -------------------------------------------------------------

    def _qualname(self, name: str) -> str:
        return ".".join([*self.class_stack, name]) if self.class_stack else name

    @property
    def current_func_qualname(self) -> Optional[str]:
        return self.func_stack[-1] if self.func_stack else None

    def _callee_ref(self, func: ast.AST) -> Optional[dict]:
        """Resolve a call's callee to an index reference."""
        if isinstance(func, ast.Name):
            target = self.mod.imports.get(func.id)
            if target is not None:
                return _Ref.imported(target)
            return _Ref.local(func.id)
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if self.class_stack:
                    return _Ref.self_attr(self.class_stack[-1], func.attr)
                return None
            d = self.dotted(func)
            if d is not None:
                return _Ref.imported(d)
        return None

    def _span(self, node: ast.AST) -> dict:
        return {
            "line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0),
            "end_line": getattr(node, "end_lineno", None)
            or getattr(node, "lineno", 1),
        }

    # -- seed lineage --------------------------------------------------------

    def _classify_seed(self, node: Optional[ast.AST], depth: int = 0) -> Tuple[str, str]:
        """Lineage class of a seed expression: one of ``literal``,
        ``wallclock``, ``entropy``, ``derived`` — plus a human detail."""
        if node is None:
            return "entropy", "no seed argument (OS entropy)"
        if depth > 6:
            return "derived", "deep expression"
        if isinstance(node, ast.Constant):
            if node.value is None:
                return "entropy", "seed=None (OS entropy)"
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float, str, bytes)
            ):
                return "derived", f"constant {node.value!r}"
            return "literal", f"literal seed {node.value!r}"
        if isinstance(node, ast.Call):
            d = self.dotted(node.func)
            if d in _WALL_CLOCK_SEEDS:
                return "wallclock", f"seed from {d}()"
            return "derived", "seed from a call"
        if isinstance(node, ast.Name):
            env_class = None
            for env in reversed(self.env_stack):
                if node.id in env:
                    env_class = env[node.id]
                    break
            if env_class in ("literal", "wallclock"):
                return env_class, f"{env_class} seed via {node.id!r}"
            return "derived", f"seed via {node.id!r}"
        if isinstance(node, ast.Attribute):
            return "derived", f"seed via attribute {node.attr!r}"
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            leaves = [
                self._classify_seed(child, depth + 1)[0]
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            ]
            if "wallclock" in leaves:
                return "wallclock", "wall-clock in seed arithmetic"
            if leaves and all(leaf == "literal" for leaf in leaves):
                return "literal", "all-literal seed arithmetic"
            return "derived", "mixed seed arithmetic"
        return "derived", "complex seed expression"

    def _record_env(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if not isinstance(target, ast.Name):
            return
        cls, _ = self._classify_seed(value)
        self.env_stack[-1][target.id] = cls
        # Constructor aliasing: ``R = random.Random``.
        if value is not None:
            d = self.dotted(value)
            if d == "random.Random":
                self.rng_ctor_names.add(target.id)

    # -- scope bookkeeping ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        qualname = self._qualname(node.name)
        returns: List[Optional[dict]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                if isinstance(sub.value, ast.Call):
                    returns.append(self._callee_ref(sub.value.func))
                else:
                    returns.append(None)
        self.idx.functions.append(
            {
                "qualname": qualname,
                "line": node.lineno,
                "is_generator": self.mod.is_generator(node),
                "decorated": bool(node.decorator_list),
                "returns": returns,
            }
        )
        self.func_stack.append(qualname)
        self.env_stack.append({})
        self.generic_visit(node)
        self.env_stack.pop()
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self._maybe_config_class(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_env(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_env(node.target, node.value)
        self.generic_visit(node)

    # -- config dataclasses --------------------------------------------------

    def _maybe_config_class(self, node: ast.ClassDef) -> None:
        if not _is_dataclass_decorated(node):
            return
        fields: List[str] = []
        has_to = has_from = uses_asdict = False
        serialized: Set[str] = set()
        to_line = node.lineno
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id.startswith("_"):
                    continue
                try:
                    ann = ast.unparse(stmt.annotation)
                except Exception:  # pragma: no cover - unparse is total
                    ann = ""
                if "ClassVar" in ann:
                    continue
                fields.append(stmt.target.id)
            elif isinstance(stmt, ast.FunctionDef):
                if stmt.name in _TO_NAMES:
                    has_to = True
                    to_line = stmt.lineno
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Call):
                            d = self.dotted(sub.func)
                            if d is not None and d.split(".")[-1] == "asdict":
                                uses_asdict = True
                        if isinstance(sub, ast.Constant) and isinstance(
                            sub.value, str
                        ):
                            serialized.add(sub.value)
                elif stmt.name in _FROM_NAMES:
                    has_from = True
        if not fields:
            return
        self.idx.config_classes.append(
            {
                "name": node.name,
                "line": node.lineno,
                "to_line": to_line,
                "fields": fields,
                "has_to": has_to,
                "has_from": has_from,
                "uses_asdict": uses_asdict,
                "serialized_strings": sorted(serialized),
            }
        )

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._maybe_rng_site(node)
        self._maybe_metric_site(node)
        self._maybe_trace_site(node)
        self._maybe_catalog_decl(node)
        self._maybe_process_ref(node)
        self.generic_visit(node)

    def _maybe_rng_site(self, node: ast.Call) -> None:
        d = self.dotted(node.func)
        ctor: Optional[str] = None
        if d == "random.Random":
            ctor = "random.Random"
        elif d in ("numpy.random.default_rng", "numpy.random.SeedSequence"):
            ctor = d
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in self.rng_ctor_names
        ):
            ctor = "random.Random"
        if ctor is None:
            return
        seed_arg = node.args[0] if node.args else None
        if seed_arg is None:
            for kw in node.keywords:
                if kw.arg in ("seed", "entropy", "x"):
                    seed_arg = kw.value
                    break
        seed, detail = self._classify_seed(seed_arg)
        self.idx.rng_sites.append(
            {**self._span(node), "ctor": ctor, "seed": seed, "detail": detail}
        )

    def _maybe_metric_site(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_KINDS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return
        self.idx.metric_sites.append(
            {
                **self._span(node),
                "name": node.args[0].value,
                "kind": func.attr,
            }
        )

    def _maybe_trace_site(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "record"):
            return
        # The receiver must *be* a tracer: ``tracer.record``,
        # ``self.tracer.record``, ``x.network.tracer.record``...  This
        # keeps unrelated ``.record()`` methods (broker registry,
        # choke-manager measurements) out of the trace index.
        recv = func.value
        recv_name = None
        if isinstance(recv, ast.Name):
            recv_name = recv.id
        elif isinstance(recv, ast.Attribute):
            recv_name = recv.attr
        if recv_name is None or not (
            recv_name == "trace" or recv_name.endswith("tracer")
        ):
            return
        if not (
            len(node.args) >= 2
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return
        fields = sorted(kw.arg for kw in node.keywords if kw.arg is not None)
        star = any(kw.arg is None for kw in node.keywords)
        self.idx.trace_sites.append(
            {
                **self._span(node),
                "event": node.args[0].value,
                "fields": fields,
                "star": star,
            }
        )

    def _maybe_catalog_decl(self, node: ast.Call) -> None:
        func = node.func
        ctor = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if ctor == "MetricSpec":
            name = _str_arg(node, 0, "name")
            kind = _str_arg(node, 1, "kind")
            if name is not None and kind is not None:
                self.idx.catalog_metrics.append(
                    {"name": name, "kind": kind, "line": node.lineno}
                )
        elif ctor == "TraceEventSpec":
            name = _str_arg(node, 0, "name")
            required = _str_tuple_arg(node, 1, "required")
            if name is not None and required is not None:
                self.idx.catalog_traces.append(
                    {"name": name, "required": required, "line": node.lineno}
                )

    def _maybe_process_ref(self, node: ast.Call) -> None:
        func = node.func
        is_process_call = (
            isinstance(func, ast.Attribute) and func.attr == "process"
        ) or (isinstance(func, ast.Name) and func.id == "Process")
        if not is_process_call or not node.args:
            return
        # ``sim.process(gen_fn(...))`` / ``Process(sim, gen_fn(...))``.
        for arg in node.args:
            if isinstance(arg, ast.Call):
                ref = self._callee_ref(arg.func)
                if ref is not None:
                    self.idx.process_refs.append(
                        {"func": self.current_func_qualname, "ref": ref}
                    )

    # -- yields --------------------------------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        func = self.current_func_qualname
        if func is not None:
            kind, ref, detail = self._classify_yield(node.value)
            self.idx.yield_sites.append(
                {
                    **self._span(node),
                    "func": func,
                    "kind": kind,
                    "ref": ref,
                    "detail": detail,
                }
            )
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        func = self.current_func_qualname
        if func is not None and isinstance(node.value, ast.Call):
            ref = self._callee_ref(node.value.func)
            if ref is not None:
                self.idx.yield_from_refs.append({"func": func, "ref": ref})
        self.generic_visit(node)

    def _classify_yield(
        self, value: Optional[ast.AST]
    ) -> Tuple[str, Optional[dict], str]:
        if value is None:
            return "bare", None, "bare yield (yields None)"
        if isinstance(value, ast.Constant):
            if isinstance(value.value, bool):
                return "other", None, "bool constant"
            if isinstance(value.value, (int, float)):
                return "number", None, "numeric delay"
            if value.value is None:
                return "bare", None, "yield None"
            return "literal", None, f"{type(value.value).__name__} literal"
        if isinstance(
            value,
            (
                ast.List,
                ast.Tuple,
                ast.Dict,
                ast.Set,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
                ast.JoinedStr,
                ast.Lambda,
            ),
        ):
            return "container", None, type(value).__name__
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in _PRIMITIVE_ATTRS:
                return "primitive", None, f".{func.attr}(...)"
            ref = self._callee_ref(func)
            return "call", ref, "call result"
        return "other", None, type(value).__name__


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else None
        )
        if name == "dataclass":
            return True
    return False


def _str_arg(node: ast.Call, pos: int, kw: str) -> Optional[str]:
    arg: Optional[ast.AST] = node.args[pos] if len(node.args) > pos else None
    if arg is None:
        for k in node.keywords:
            if k.arg == kw:
                arg = k.value
                break
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def _str_tuple_arg(node: ast.Call, pos: int, kw: str) -> Optional[List[str]]:
    arg: Optional[ast.AST] = node.args[pos] if len(node.args) > pos else None
    if arg is None:
        for k in node.keywords:
            if k.arg == kw:
                arg = k.value
                break
    if isinstance(arg, (ast.Tuple, ast.List)):
        out = []
        for elt in arg.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None


def index_module(mod: ModuleInfo) -> FileIndex:
    """Build the :class:`FileIndex` of one parsed module."""
    idx = FileIndex(
        path=mod.path,
        scope=mod.scope,
        module=_module_name(mod.path),
        imported_modules=mod.imported_modules,
        suppressions=mod.suppressions,
    )
    _FileIndexer(idx, mod).visit(mod.tree)
    return idx


def index_source(source: str, path: str, scope: Optional[str] = None) -> FileIndex:
    """Build the :class:`FileIndex` for one module's source text."""
    return index_module(ModuleInfo(source, path, scope or classify_scope(path)))


# ---------------------------------------------------------------------------
# Project aggregation
# ---------------------------------------------------------------------------


class ProjectIndex:
    """Aggregated whole-program facts over a set of :class:`FileIndex`."""

    def __init__(self, files: Dict[str, FileIndex]) -> None:
        #: path -> FileIndex, in sorted path order.
        self.files: Dict[str, FileIndex] = dict(sorted(files.items()))
        #: dotted module name -> path.
        self.modules: Dict[str, str] = {
            fi.module: path for path, fi in self.files.items() if fi.module
        }
        self._process_generators: Optional[Set[Tuple[str, str]]] = None

    # -- import graph --------------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Path of the project module a dotted import target names.

        Tries the longest prefix first, so ``repro.obs.metrics.Counter``
        (a from-import target) resolves to ``repro.obs.metrics``.
        """
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            path = self.modules.get(candidate)
            if path is not None:
                return path
        return None

    def import_graph(self) -> Dict[str, List[str]]:
        """Project-internal import graph: module -> sorted imports."""
        graph: Dict[str, List[str]] = {}
        for path, fi in self.files.items():
            targets: Set[str] = set()
            for dotted in fi.imported_modules:
                target_path = self.resolve_module(dotted)
                if target_path is not None and target_path != path:
                    targets.add(self.files[target_path].module)
            graph[fi.module] = sorted(targets)
        return graph

    # -- function resolution -------------------------------------------------

    def resolve_function(
        self, ref: Optional[dict], from_path: str
    ) -> Optional[Tuple[str, dict]]:
        """Resolve a callee ref to ``(path, function-entry)``.

        One call level deep, as documented: local names and ``self.x``
        resolve within the defining file; imported names through the
        module map.  Unresolvable refs return None (conservative).
        """
        if ref is None:
            return None
        base = ref.get("base")
        name = ref.get("name", "")
        if base == "local":
            fi = self.files.get(from_path)
            if fi is not None:
                for fn in fi.functions:
                    if fn["qualname"] == name:
                        return from_path, fn
            return None
        if base == "self":
            fi = self.files.get(from_path)
            if fi is not None:
                qual = f"{ref.get('cls')}.{name}"
                for fn in fi.functions:
                    if fn["qualname"] == qual:
                        return from_path, fn
            return None
        if base == "import":
            parts = name.split(".")
            for end in range(len(parts) - 1, 0, -1):
                module = ".".join(parts[:end])
                path = self.modules.get(module)
                if path is None:
                    continue
                qual = ".".join(parts[end:])
                fi = self.files[path]
                for fn in fi.functions:
                    if fn["qualname"] == qual:
                        return path, fn
            return None
        return None

    # -- process generators --------------------------------------------------

    def process_generators(self) -> Set[Tuple[str, str]]:
        """``(path, qualname)`` of every known kernel-process generator.

        Seeds: generators handed to a ``*.process(...)``/``Process``
        call anywhere in the project, plus self-evidencing generators
        (ones that yield a kernel-primitive factory call).  Process
        membership then propagates through ``yield from`` delegation
        and through process calls made *inside* a process generator.
        """
        if self._process_generators is not None:
            return self._process_generators
        processes: Set[Tuple[str, str]] = set()
        # Self-evidencing generators.
        gen_by_file: Dict[str, Dict[str, dict]] = {}
        for path, fi in self.files.items():
            gen_by_file[path] = {
                fn["qualname"]: fn for fn in fi.functions if fn["is_generator"]
            }
            primitive_funcs = sorted(
                {
                    ys["func"]
                    for ys in fi.yield_sites
                    if ys["kind"] == "primitive"
                }
            )
            for qual in primitive_funcs:
                if qual in gen_by_file[path]:
                    processes.add((path, qual))
        # Call-site seeds.
        for path, fi in self.files.items():
            for pref in fi.process_refs:
                resolved = self.resolve_function(pref["ref"], path)
                if resolved is not None and resolved[1]["is_generator"]:
                    processes.add((resolved[0], resolved[1]["qualname"]))
        # Propagate through yield-from delegation (fixed point).
        changed = True
        while changed:
            changed = False
            for path, fi in self.files.items():
                for yf in fi.yield_from_refs:
                    if (path, yf["func"]) not in processes:
                        continue
                    resolved = self.resolve_function(yf["ref"], path)
                    if (
                        resolved is not None
                        and resolved[1]["is_generator"]
                        and (resolved[0], resolved[1]["qualname"]) not in processes
                    ):
                        processes.add((resolved[0], resolved[1]["qualname"]))
                        changed = True
        self._process_generators = processes
        return processes

    # -- suppression ---------------------------------------------------------

    def is_suppressed(self, finding: Finding) -> bool:
        """Same inline-suppression semantics as per-file findings."""
        fi = self.files.get(finding.path)
        return fi is not None and fi.suppressions.is_suppressed(finding)

    def finding(
        self, rule: str, path: str, line: int, message: str, end_line: int = 0
    ) -> Finding:
        return Finding(
            rule=rule,
            path=path,
            line=line,
            col=0,
            message=message,
            end_line=end_line or line,
        )


# ---------------------------------------------------------------------------
# Lint driver
# ---------------------------------------------------------------------------


def _modules(paths: Sequence[str], root: Optional[Path]) -> Iterator[ModuleInfo]:
    """Parse every ``.py`` file under ``paths``, in sorted order."""
    for abspath, rel in iter_python_files(paths, root=root):
        try:
            source = abspath.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{rel}: {exc}") from exc
        yield ModuleInfo(source, rel, classify_scope(rel))


def build_project_index(
    paths: Sequence[str], root: Optional[Path] = None
) -> ProjectIndex:
    """Index every ``.py`` file under ``paths``."""
    return ProjectIndex(
        {mod.path: index_module(mod) for mod in _modules(paths, root)}
    )


def lint_project(
    paths: Sequence[str],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project_rules: bool = True,
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` with both rule packs.

    Each file is parsed once; its :class:`ModuleInfo` feeds the
    per-file rules and then the project index.  ``select``/``ignore``
    filter both packs (see :func:`~repro.simlint.engine.select_rules`);
    ``project_rules=False`` skips the cross-module pack.
    """
    file_rules, cross_rules = select_rules(select, ignore)
    if not project_rules:
        cross_rules = []
    result = LintResult()
    files: Dict[str, FileIndex] = {}
    for mod in _modules(paths, root):
        result.files += 1
        lint_module(mod, file_rules, result)
        if cross_rules:
            files[mod.path] = index_module(mod)
    if cross_rules:
        index = ProjectIndex(files)
        for rule in cross_rules:
            for finding in rule.check(index):
                if index.is_suppressed(finding):
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)
    return result.sorted()
