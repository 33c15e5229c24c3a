"""The simlint rule pack.

Each rule targets an invariant this simulator's reproducibility
actually depends on (see ``docs/API.md`` §8 for the rationale per
rule):

========  ==================================================================
SIM001    wall-clock reads (``time.time``/``perf_counter``/``datetime.now``)
SIM002    global ``random`` / module-level ``numpy.random`` draws
SIM003    iteration over unordered ``set`` values
SIM004    float ``==``/``!=`` on sim-time quantities
SIM005    blocking I/O inside kernel ``Process`` generators
SIM006    obs instruments constructed outside ``__init__`` (hot-path cost)
SIM007    bare ``except`` / Interrupt-swallowing handlers in processes
SIM010    ``random.Random`` in library code seeded outside the session tree
========  ==================================================================

Rules run in one of three path *scopes* — ``sim`` (library code),
``bench`` (``benchmarks/``), ``test`` (``tests/``) — declared per rule:
exact-time assertions are the whole point of a determinism test, so
SIM004 only patrols library code, while wall-clock reads are suspect
everywhere and need a justified inline suppression even in benchmarks.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.simlint.engine import ModuleInfo, is_set_expr
from repro.simlint.findings import Finding

__all__ = ["Rule", "RULES", "RULES_BY_ID"]


class Rule:
    """Base class: one registered rule with an AST check."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    scopes: frozenset = frozenset({"sim", "bench", "test"})
    #: Path suffixes this rule never applies to (e.g. the registry
    #: module whose *job* is constructing instruments).
    exclude_paths: Tuple[str, ...] = ()

    def check(self, mod: ModuleInfo) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


class _ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing function/class chain."""

    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        self.rule = rule
        self.mod = mod
        self.findings: List[Finding] = []
        self.func_stack: List[ast.AST] = []
        self.class_stack: List[str] = []

    # -- scope bookkeeping --------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    # -- helpers ------------------------------------------------------------

    @property
    def current_function(self) -> Optional[ast.AST]:
        return self.func_stack[-1] if self.func_stack else None

    @property
    def current_class(self) -> Optional[str]:
        return self.class_stack[-1] if self.class_stack else None

    def in_generator(self) -> bool:
        func = self.current_function
        return (
            func is not None
            and self.mod.is_generator(func)
            and not self.mod.is_decorated(func)
        )

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.mod.finding(self.rule.id, node, message))

    def run(self) -> List[Finding]:
        self.visit(self.mod.tree)
        return self.findings


# ---------------------------------------------------------------------------
# SIM001 — wall-clock reads
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    id = "SIM001"
    title = "wall-clock read"
    rationale = (
        "Simulated quantities must come from Simulator.now; reading the "
        "host clock makes results depend on machine speed and breaks "
        "bit-for-bit same-seed replay. Measured (not simulated) timings "
        "are fine — suppress with a justification."
    )
    scopes = frozenset({"sim", "bench", "test"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _WallClockVisitor(self, mod)
        return visitor.run()


class _WallClockVisitor(_ScopedVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.mod.dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {dotted}() — simulated quantities must "
                f"use Simulator.now (suppress only for *measured* time)",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM002 — global random state
# ---------------------------------------------------------------------------

#: ``random`` module attributes that are *not* global-state draws.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
#: ``numpy.random`` attributes that construct independent generators.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)


class GlobalRandomRule(Rule):
    id = "SIM002"
    title = "global random state"
    rationale = (
        "Draws from the module-level random/numpy.random state are "
        "shared across every component: adding one draw anywhere "
        "perturbs all later draws everywhere. Use "
        "repro.simnet.rng.RandomStreams named substreams (or a local "
        "seeded random.Random instance in tests)."
    )
    scopes = frozenset({"sim", "bench", "test"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _GlobalRandomVisitor(self, mod)
        return visitor.run()


class _GlobalRandomVisitor(_ScopedVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.mod.dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (
                parts[0] == "random"
                and len(parts) == 2
                and parts[1] not in _RANDOM_ALLOWED
            ):
                self.report(
                    node,
                    f"global random-state draw {dotted}() — use a named "
                    f"RandomStreams substream or a seeded random.Random",
                )
            elif (
                len(parts) >= 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] not in _NUMPY_RANDOM_ALLOWED
            ):
                self.report(
                    node,
                    f"module-level numpy.random draw {dotted}() — use a "
                    f"named RandomStreams substream",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            bad = [
                a.name
                for a in node.names
                if a.name != "*" and a.name not in _RANDOM_ALLOWED
            ]
            if bad:
                self.report(
                    node,
                    f"importing global random-state function(s) "
                    f"{', '.join(bad)} from random — use a seeded instance",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM003 — iteration over unordered sets
# ---------------------------------------------------------------------------

#: Builtins whose output order follows their input iteration order.
_ORDER_SENSITIVE_WRAPPERS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed"}
)


class SetIterationRule(Rule):
    id = "SIM003"
    title = "unordered set iteration"
    rationale = (
        "Set iteration order depends on hash seeding and insertion "
        "history; feeding it into scheduling, RNG draws or output "
        "serialisation silently breaks same-seed replay. Wrap in "
        "sorted(...) or keep an insertion-ordered dict-as-set."
    )
    scopes = frozenset({"sim", "bench", "test"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _SetIterationVisitor(self, mod)
        return visitor.run()


class _SetIterationVisitor(_ScopedVisitor):
    def _flag_if_set(self, node: ast.AST, how: str) -> None:
        if is_set_expr(node):
            self.report(
                node,
                f"iteration over a set expression {how} — order is "
                f"unordered; wrap in sorted(...)",
            )
            return
        name = self.mod.is_set_typed(
            node, self.func_stack, self.current_class
        )
        if name is not None:
            self.report(
                node,
                f"iteration over unordered set {name!r} {how} — wrap in "
                f"sorted(...) or use an insertion-ordered dict",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_set(node.iter, "in a for loop")
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._flag_if_set(gen.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_WRAPPERS
            and node.args
        ):
            self._flag_if_set(node.args[0], f"via {func.id}(...)")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
        ):
            self._flag_if_set(node.args[0], "via str.join(...)")
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        self._flag_if_set(node.value, "via * unpacking")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM004 — float equality on sim-time quantities
# ---------------------------------------------------------------------------

_TIMEY_RE = re.compile(
    r"(?:^|_)(?:time|now|deadline|horizon|at|until)(?:_|$)|"
    r"(?:^|_)t(?:0|1)?$",
    re.IGNORECASE,
)


def _timey_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and _TIMEY_RE.search(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _TIMEY_RE.search(node.attr):
        return node.attr
    return None


class TimeEqualityRule(Rule):
    id = "SIM004"
    title = "float equality on sim time"
    rationale = (
        "Sim times are accumulated floats; == / != on them flips with "
        "any change to the arithmetic that produced them. Compare with "
        "a tolerance, restructure around event identity, or suppress "
        "where exact copy-equality is the intended semantics (e.g. "
        "timer re-arm dedup)."
    )
    # Exact-time assertions are the *point* of determinism tests, so
    # this rule patrols library code only.
    scopes = frozenset({"sim"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _TimeEqualityVisitor(self, mod)
        return visitor.run()


class _TimeEqualityVisitor(_ScopedVisitor):
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _timey_name(left) or _timey_name(right)
            if name is None:
                continue
            # `x is None`-style sentinel comparisons use Is, never ==;
            # comparisons against int 0 are exact-assignment sentinels
            # when times are initialised to literal zero — still risky,
            # so they are flagged too.
            self.report(
                node,
                f"float ==/!= involving sim-time quantity {name!r} — "
                f"use a tolerance or event identity",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM005 — blocking I/O in kernel processes
# ---------------------------------------------------------------------------

_BLOCKING_NAMES = frozenset({"open", "input", "breakpoint"})
_BLOCKING_DOTTED = frozenset({"time.sleep", "os.system", "os.popen"})
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.", "requests.")


class BlockingIORule(Rule):
    id = "SIM005"
    title = "blocking I/O in a process"
    rationale = (
        "Kernel Process generators advance in simulated time only; a "
        "real open()/sleep()/input() inside one blocks the whole "
        "single-threaded event loop and couples the run to the host "
        "environment. Do I/O before the run starts or after it ends."
    )
    scopes = frozenset({"sim", "bench", "test"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _BlockingIOVisitor(self, mod)
        return visitor.run()


class _BlockingIOVisitor(_ScopedVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_generator():
            bad: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id in _BLOCKING_NAMES:
                bad = node.func.id
            else:
                dotted = self.mod.dotted_name(node.func)
                if dotted is not None and (
                    dotted in _BLOCKING_DOTTED
                    or dotted.startswith(_BLOCKING_PREFIXES)
                ):
                    bad = dotted
            if bad is not None:
                self.report(
                    node,
                    f"blocking call {bad}() inside a generator process — "
                    f"kernel processes must only wait on simulated events",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM006 — instruments constructed outside __init__
# ---------------------------------------------------------------------------

_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_INIT_NAMES = frozenset({"__init__", "__post_init__", "__attrs_post_init__"})


class InstrumentBindingRule(Rule):
    id = "SIM006"
    title = "instrument constructed outside __init__"
    rationale = (
        "The observability contract binds instruments once at "
        "construction so the per-event cost with the no-op registry is "
        "a single call; registry lookups inside method bodies put a "
        "dict hash on the hot path. Bind in __init__; suppress for "
        "genuinely cold paths (per-run flush/report code)."
    )
    scopes = frozenset({"sim"})
    # The registry module's own factory methods and the exporter's
    # read-side accessors are the implementation, not consumers.
    exclude_paths = ("obs/metrics.py",)

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _InstrumentBindingVisitor(self, mod)
        return visitor.run()


class _InstrumentBindingVisitor(_ScopedVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_FACTORIES
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            enclosing = self.current_function
            if enclosing is not None and enclosing.name not in _INIT_NAMES:
                self.report(
                    node,
                    f"metrics .{func.attr}(...) constructed inside "
                    f"{enclosing.name}() — bind instruments once in "
                    f"__init__ (hot-path contract)",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SIM007 — swallowed interrupts / bare except
# ---------------------------------------------------------------------------

_BROAD_EXC_NAMES = frozenset({"Exception", "BaseException"})


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for n in nodes:
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            names.append(n.attr)
    return names


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class SwallowedInterruptRule(Rule):
    id = "SIM007"
    title = "bare except / swallowed interrupt"
    rationale = (
        "A process receives every failure at its yields: a failed "
        "event it waits on, a kernel error, the close of its "
        "generator.  A bare/broad except that neither names what it "
        "expects nor re-raises turns a failure it never meant to "
        "handle into silent corruption (leaked resource slots, "
        "phantom transfers)."
    )
    scopes = frozenset({"sim", "bench", "test"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        visitor = _SwallowedInterruptVisitor(self, mod)
        return visitor.run()


class _SwallowedInterruptVisitor(_ScopedVisitor):
    def visit_Try(self, node: ast.Try) -> None:
        interrupts_handled = any(
            any("Interrupt" in name for name in _handler_names(h))
            for h in node.handlers
            if h.type is not None
        )
        for handler in node.handlers:
            if handler.type is None:
                self.report(
                    handler,
                    "bare except: — catches GeneratorExit and "
                    "SimStopped; name the exceptions you mean",
                )
                continue
            if not self.in_generator():
                continue
            names = _handler_names(handler)
            if (
                any(n in _BROAD_EXC_NAMES for n in names)
                and not interrupts_handled
                and not _body_reraises(handler)
            ):
                self.report(
                    handler,
                    f"except {'/'.join(names)} in a generator process "
                    f"swallows every failure thrown in at its yields — "
                    f"name the exceptions you mean or re-raise",
                )
        self.generic_visit(node)

    visit_TryStar = visit_Try  # type: ignore[assignment]  # py3.11 except*


# ---------------------------------------------------------------------------
# SIM010 — RNG seed lineage
# ---------------------------------------------------------------------------

#: Wall-clock and entropy calls a seed expression must never derive from.
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

_RNG_CTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.SeedSequence"}
)

_SEED_PROBLEMS = {
    "literal": (
        "seeded with a literal — every run and every repetition reuses "
        "the same stream; derive the seed from the session RNG tree "
        "(RandomStreams.get/fork or ExperimentConfig.for_repetition)"
    ),
    "wallclock": (
        "seeded from the wall clock — runs are unreproducible by "
        "construction; derive the seed from the session RNG tree"
    ),
    "entropy": (
        "constructed without a seed (OS entropy) — unreproducible by "
        "construction; derive the seed from the session RNG tree"
    ),
}


class RngLineageRule(Rule):
    id = "SIM010"
    title = "RNG seeded outside the session tree"
    rationale = (
        "Same-seed replay only holds if every RNG in library code "
        "descends from the one session seed. A literal or wall-clock "
        "seed three modules away from the RandomStreams tree silently "
        "decouples that component from --seed: two 'identical' runs "
        "diverge, or worse, every repetition repeats the same draws."
    )
    # Tests and benchmarks construct throwaway seeded RNGs on purpose.
    scopes = frozenset({"sim"})

    def check(self, mod: ModuleInfo) -> List[Finding]:
        return _RngLineageVisitor(self, mod).run()


class _RngLineageVisitor(_ScopedVisitor):
    """Classifies the seed of every RNG construction.

    A seed is ``literal``, ``wallclock``, ``entropy`` or ``derived``;
    names resolve through the assignments seen so far in each
    enclosing function, and ``R = random.Random`` aliases are followed.
    """

    def __init__(self, rule: Rule, mod: ModuleInfo) -> None:
        super().__init__(rule, mod)
        #: Per-function seed-lineage environments: name -> class.
        self.env_stack: List[Dict[str, str]] = [{}]
        #: Names assigned the random.Random constructor.
        self.ctor_aliases: Set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.env_stack.append({})
        super().visit_FunctionDef(node)
        self.env_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _bind(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env_stack[-1][target.id] = self._classify(value)[0]
            if self.mod.dotted_name(value) == "random.Random":
                self.ctor_aliases.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        ctor = self.mod.dotted_name(node.func)
        if isinstance(node.func, ast.Name) and node.func.id in self.ctor_aliases:
            ctor = "random.Random"
        if ctor in _RNG_CTORS:
            seed_arg = node.args[0] if node.args else None
            if seed_arg is None:
                for kw in node.keywords:
                    if kw.arg in ("seed", "entropy", "x"):
                        seed_arg = kw.value
                        break
            seed, detail = self._classify(seed_arg)
            problem = _SEED_PROBLEMS.get(seed)
            if problem is not None:
                self.report(node, f"{ctor}(...) {problem} ({detail})")
        self.generic_visit(node)

    def _classify(self, node: Optional[ast.AST], depth: int = 0) -> Tuple[str, str]:
        """Lineage class of a seed expression, plus a human detail."""
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
            d = self.mod.dotted_name(node.func)
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
                self._classify(child, depth + 1)[0]
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            ]
            if "wallclock" in leaves:
                return "wallclock", "wall-clock in seed arithmetic"
            if leaves and all(leaf == "literal" for leaf in leaves):
                return "literal", "all-literal seed arithmetic"
            return "derived", "mixed seed arithmetic"
        return "derived", "complex seed expression"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES: Sequence[Rule] = (
    WallClockRule(),
    GlobalRandomRule(),
    SetIterationRule(),
    TimeEqualityRule(),
    BlockingIORule(),
    InstrumentBindingRule(),
    SwallowedInterruptRule(),
    RngLineageRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}
