"""The cross-module (whole-program) rule pack.

These rules consume the :class:`~repro.simlint.project.ProjectIndex`
rather than a single :class:`~repro.simlint.engine.ModuleInfo` — each
one checks an invariant no per-file pass can see:

========  ==================================================================
SIM010    RNG lineage: ``random.Random(...)`` in library code must derive
          its seed from the session RNG tree (no literal / wall-clock /
          OS-entropy seeds outside tests and benchmarks)
SIM011    metric-name consistency: runtime instrument names must appear in
          the checked-in metric catalog; orphans and near-miss typos
          reported with did-you-mean
SIM012    trace-event schema: event names and required fields emitted via
          a tracer must match the declared trace schema table
SIM013    process-yield discipline: kernel-process generators may only
          yield kernel primitives (numbers coerce to timeouts); raw
          generators and containers are runtime errors in disguise
SIM014    config-roundtrip completeness: every field of a hand-serialized
          config dataclass must appear in its ``to_dict``/``to_json``
========  ==================================================================

All five patrol the ``sim`` scope only: tests and benchmarks construct
throwaway RNGs, ad-hoc metric names and synthetic configs on purpose.
Findings flow through the same inline suppressions and reporters as
the per-file rules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.simlint.catalog import MetricCatalog, TraceSchema, did_you_mean
from repro.simlint.findings import Finding
from repro.simlint.project import ProjectIndex

__all__ = ["ProjectRule", "PROJECT_RULES", "PROJECT_RULES_BY_ID"]


class ProjectRule:
    """Base class: one registered whole-program rule."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    scopes: frozenset = frozenset({"sim"})

    def check(self, index: ProjectIndex) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


# ---------------------------------------------------------------------------
# SIM010 — RNG seed lineage
# ---------------------------------------------------------------------------

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


class RngLineageRule(ProjectRule):
    id = "SIM010"
    title = "RNG seeded outside the session tree"
    rationale = (
        "Same-seed replay only holds if every RNG in library code "
        "descends from the one session seed. A literal or wall-clock "
        "seed three modules away from the RandomStreams tree silently "
        "decouples that component from --seed: two 'identical' runs "
        "diverge, or worse, every repetition repeats the same draws."
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for path, fi in index.files.items():
            if fi.scope != "sim":
                continue
            for site in fi.rng_sites:
                problem = _SEED_PROBLEMS.get(site["seed"])
                if problem is None:
                    continue
                findings.append(
                    index.finding(
                        self.id,
                        path,
                        site["line"],
                        f"{site['ctor']}(...) {problem} ({site['detail']})",
                        end_line=site["end_line"],
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# SIM011 — metric-name consistency
# ---------------------------------------------------------------------------

#: The registry implementation and the catalog itself are the contract,
#: not consumers of it.
_METRIC_IMPL_SUFFIXES = ("obs/metrics.py", "obs/metric_catalog.py")


class MetricCatalogRule(ProjectRule):
    id = "SIM011"
    title = "metric name not in the catalog"
    rationale = (
        "Dashboards, CI metric assertions and cross-run diffs key on "
        "instrument names. A name published at runtime but absent from "
        "obs/metric_catalog.py is invisible to all of them; an orphan "
        "catalog entry documents an instrument that no longer exists; "
        "a one-character typo silently splits one series into two."
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        catalog = MetricCatalog.from_index(index)
        if not catalog:
            # No catalog declared in this tree — the rule is dormant
            # (adoption is incremental; fixture trees stay clean).
            return []
        findings: List[Finding] = []
        published: Set[str] = set()
        for path, fi in index.files.items():
            if fi.scope != "sim" or path.endswith(_METRIC_IMPL_SUFFIXES):
                continue
            for site in fi.metric_sites:
                name, kind = site["name"], site["kind"]
                if name in catalog:
                    published.add(name)
                    declared = catalog.entries[name].kind
                    if declared != kind:
                        findings.append(
                            index.finding(
                                self.id,
                                path,
                                site["line"],
                                f"metric {name!r} published as {kind} but "
                                f"declared as {declared} in the catalog "
                                f"({catalog.entries[name].path}:"
                                f"{catalog.entries[name].line})",
                                end_line=site["end_line"],
                            )
                        )
                    continue
                hint = did_you_mean(name, catalog.entries)
                suffix = f" — did you mean {hint!r}?" if hint else ""
                findings.append(
                    index.finding(
                        self.id,
                        path,
                        site["line"],
                        f"metric {name!r} is not declared in the metric "
                        f"catalog (obs/metric_catalog.py){suffix}",
                        end_line=site["end_line"],
                    )
                )
        for dup in catalog.duplicates:
            findings.append(
                index.finding(
                    self.id,
                    dup.path,
                    dup.line,
                    f"duplicate catalog entry for metric {dup.name!r}",
                )
            )
        for name in sorted(set(catalog.entries) - published):
            entry = catalog.entries[name]
            findings.append(
                index.finding(
                    self.id,
                    entry.path,
                    entry.line,
                    f"orphan catalog entry: metric {name!r} is declared "
                    f"but never published by any indexed sim module",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# SIM012 — trace-event schema
# ---------------------------------------------------------------------------

_TRACE_IMPL_SUFFIXES = ("obs/trace.py", "obs/trace_schema.py")


class TraceSchemaRule(ProjectRule):
    id = "SIM012"
    title = "trace event off-schema"
    rationale = (
        "Trace analyses join events across modules by name and field. "
        "An emit site whose event name or field set drifts from "
        "obs/trace_schema.py breaks every downstream reader silently — "
        "the reservoir just stores whatever dict it was handed."
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        schema = TraceSchema.from_index(index)
        if not schema:
            return []
        findings: List[Finding] = []
        emitted: Set[str] = set()
        for path, fi in index.files.items():
            if fi.scope != "sim" or path.endswith(_TRACE_IMPL_SUFFIXES):
                continue
            for site in fi.trace_sites:
                event = site["event"]
                if event not in schema:
                    hint = did_you_mean(event, schema.events)
                    suffix = f" — did you mean {hint!r}?" if hint else ""
                    findings.append(
                        index.finding(
                            self.id,
                            path,
                            site["line"],
                            f"trace event {event!r} is not declared in the "
                            f"trace schema (obs/trace_schema.py){suffix}",
                            end_line=site["end_line"],
                        )
                    )
                    continue
                emitted.add(event)
                if site["star"]:
                    # **kwargs splat may carry any field — trust it.
                    continue
                missing = set(schema.events[event].required) - set(site["fields"])
                if missing:
                    findings.append(
                        index.finding(
                            self.id,
                            path,
                            site["line"],
                            f"trace event {event!r} emitted without required "
                            f"field(s) {sorted(missing)} (schema: "
                            f"{schema.events[event].path}:"
                            f"{schema.events[event].line})",
                            end_line=site["end_line"],
                        )
                    )
        for dup in schema.duplicates:
            findings.append(
                index.finding(
                    self.id,
                    dup.path,
                    dup.line,
                    f"duplicate schema entry for trace event {dup.name!r}",
                )
            )
        for name in sorted(set(schema.events) - emitted):
            entry = schema.events[name]
            findings.append(
                index.finding(
                    self.id,
                    entry.path,
                    entry.line,
                    f"orphan schema entry: trace event {name!r} is declared "
                    f"but never emitted by any indexed sim module",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# SIM013 — process-yield discipline
# ---------------------------------------------------------------------------

_BAD_YIELD_KINDS = {
    "literal": "a string/bytes literal",
    "container": "a container/lambda expression",
}


class ProcessYieldRule(ProjectRule):
    id = "SIM013"
    title = "non-primitive yield in a kernel process"
    rationale = (
        "The kernel coerces a yielded value to an Event or a Timeout; "
        "anything else (a raw generator, a list of events, a string) is "
        "a TypeError at run time — but only on the branch that yields "
        "it, which a same-seed smoke run may never take. Yield kernel "
        "primitives (sim.timeout/event/any_of/...), numbers, or wrap "
        "sub-processes in sim.process(...)."
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        processes = index.process_generators()
        for path, fi in index.files.items():
            if fi.scope != "sim":
                continue
            for site in fi.yield_sites:
                if (path, site["func"]) not in processes:
                    continue
                kind = site["kind"]
                if kind in _BAD_YIELD_KINDS:
                    findings.append(
                        index.finding(
                            self.id,
                            path,
                            site["line"],
                            f"process generator {site['func']}() yields "
                            f"{_BAD_YIELD_KINDS[kind]} ({site['detail']}) — "
                            f"the kernel only accepts events and numeric "
                            f"delays",
                            end_line=site["end_line"],
                        )
                    )
                elif kind == "call":
                    resolved = index.resolve_function(site["ref"], path)
                    if resolved is not None and resolved[1]["is_generator"]:
                        findings.append(
                            index.finding(
                                self.id,
                                path,
                                site["line"],
                                f"process generator {site['func']}() yields "
                                f"raw generator "
                                f"{resolved[1]['qualname']}() — wrap it in "
                                f"sim.process(...) or delegate with "
                                f"'yield from'",
                                end_line=site["end_line"],
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# SIM014 — config-roundtrip completeness
# ---------------------------------------------------------------------------


class ConfigRoundtripRule(ProjectRule):
    id = "SIM014"
    title = "config field missing from serialization"
    rationale = (
        "Experiment configs round-trip through JSON for checkpoints, "
        "sweep manifests and replay. A dataclass field missing from a "
        "hand-rolled to_dict silently reverts to its default on "
        "reload — the replayed run is *almost* the recorded one, which "
        "is worse than failing loudly. dataclasses.asdict-based "
        "serializers are complete by construction and skipped."
    )

    def check(self, index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        for path, fi in index.files.items():
            if fi.scope != "sim":
                continue
            for cls in fi.config_classes:
                if not cls["has_to"] or cls["uses_asdict"]:
                    continue
                serialized = set(cls["serialized_strings"])
                missing = [f for f in cls["fields"] if f not in serialized]
                if missing:
                    findings.append(
                        index.finding(
                            self.id,
                            path,
                            cls["to_line"],
                            f"{cls['name']}.to_dict() never mentions "
                            f"field(s) {missing} — reloading this config "
                            f"silently reverts them to defaults",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

PROJECT_RULES: Sequence[ProjectRule] = (
    RngLineageRule(),
    MetricCatalogRule(),
    TraceSchemaRule(),
    ProcessYieldRule(),
    ConfigRoundtripRule(),
)

PROJECT_RULES_BY_ID: Dict[str, ProjectRule] = {
    rule.id: rule for rule in PROJECT_RULES
}
