"""ProjectIndex machinery: extraction, import graph, filtered runs."""

from __future__ import annotations

import pytest

from repro.simlint.project import (
    build_project_index,
    index_source,
    lint_project,
)


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


class TestModuleNaming:
    def test_src_prefix_stripped(self):
        idx = index_source("x = 1\n", "src/repro/obs/metrics.py")
        assert idx.module == "repro.obs.metrics"

    def test_package_init_maps_to_package(self):
        idx = index_source("x = 1\n", "src/repro/obs/__init__.py")
        assert idx.module == "repro.obs"

    def test_tests_keep_their_prefix(self):
        idx = index_source("x = 1\n", "tests/simlint/test_cli.py")
        assert idx.module == "tests.simlint.test_cli"


class TestImportGraph:
    FIXTURE = {
        "src/pkg/__init__.py": "",
        "src/pkg/core.py": "VALUE = 1\n",
        "src/pkg/mid.py": "from pkg.core import VALUE\n",
        "src/pkg/top.py": "import pkg.mid\nfrom pkg import core\n",
        "src/pkg/loner.py": "import json\n",
    }

    def test_graph_edges_resolve_from_imports_and_aliases(self, tmp_path):
        root = write_tree(tmp_path, self.FIXTURE)
        index = build_project_index(["src"], root=root)
        graph = index.import_graph()
        assert graph["pkg.mid"] == ["pkg.core"]
        assert graph["pkg.top"] == ["pkg.core", "pkg.mid"]
        # Stdlib imports never create project edges.
        assert graph["pkg.loner"] == []

    def test_longest_prefix_resolution(self, tmp_path):
        root = write_tree(tmp_path, self.FIXTURE)
        index = build_project_index(["src"], root=root)
        # A from-import target (module.attr) resolves to the module.
        assert index.resolve_module("pkg.core.VALUE") == "src/pkg/core.py"
        assert index.resolve_module("other.module") is None


class TestRngExtraction:
    def test_literal_seed_classified(self):
        idx = index_source(
            "import random\nr = random.Random(42)\n", "src/repro/x.py"
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "literal"

    def test_aliased_constructor_tracked(self):
        # The aliasing requirement: R = random.Random; R(42).
        idx = index_source(
            "import random\nR = random.Random\nr = R(1234)\n",
            "src/repro/x.py",
        )
        (site,) = idx.rng_sites
        assert site["ctor"] == "random.Random"
        assert site["seed"] == "literal"

    def test_from_import_alias_tracked(self):
        idx = index_source(
            "from random import Random as Rng\nr = Rng(7)\n",
            "src/repro/x.py",
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "literal"

    def test_literal_through_local_variable(self):
        idx = index_source(
            "import random\nseed = 99\nr = random.Random(seed)\n",
            "src/repro/x.py",
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "literal"

    def test_wall_clock_seed_classified(self):
        idx = index_source(
            "import random, time\nr = random.Random(time.time())\n",
            "src/repro/x.py",
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "wallclock"

    def test_unseeded_is_entropy(self):
        idx = index_source(
            "import random\nr = random.Random()\n", "src/repro/x.py"
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "entropy"

    def test_derived_seed_is_clean(self):
        idx = index_source(
            "import random\n"
            "def make(streams):\n"
            "    return random.Random(streams.get('x').getrandbits(64))\n",
            "src/repro/x.py",
        )
        (site,) = idx.rng_sites
        assert site["seed"] == "derived"


class TestLiteralExtraction:
    def test_metric_sites(self):
        idx = index_source(
            "class C:\n"
            "    def __init__(self, registry):\n"
            "        self.ok = registry.counter('x.ok')\n"
            "        self.depth = registry.gauge('x.depth')\n"
            "        self.lat = registry.histogram('x.lat_s', (0.1, 1.0))\n",
            "src/repro/x.py",
        )
        assert [(s["name"], s["kind"]) for s in idx.metric_sites] == [
            ("x.ok", "counter"),
            ("x.depth", "gauge"),
            ("x.lat_s", "histogram"),
        ]

    def test_trace_sites_require_tracer_receiver(self):
        idx = index_source(
            "def f(tracer, registry, now):\n"
            "    tracer.record('ev-one', now, peer='a', size=3)\n"
            "    registry.record('not-a-trace', now)\n",
            "src/repro/x.py",
        )
        (site,) = idx.trace_sites
        assert site["event"] == "ev-one"
        assert site["fields"] == ["peer", "size"]
        assert site["star"] is False

    def test_trace_star_kwargs_marked(self):
        idx = index_source(
            "def f(tracer, now, **attrs):\n"
            "    tracer.record('ev', now, model='m', **attrs)\n",
            "src/repro/x.py",
        )
        (site,) = idx.trace_sites
        assert site["star"] is True

    def test_catalog_declarations(self):
        idx = index_source(
            "from repro.obs.metric_catalog import MetricSpec\n"
            "from repro.obs.trace_schema import TraceEventSpec\n"
            "METRICS = (MetricSpec('a.b', 'counter', 'x', 'd'),)\n"
            "EVENTS = (TraceEventSpec('ev', ('f1', 'f2'), 'x', 'd'),)\n",
            "src/repro/obs/metric_catalog.py",
        )
        assert idx.catalog_metrics == [
            {"name": "a.b", "kind": "counter", "line": 3}
        ]
        assert idx.catalog_traces == [
            {"name": "ev", "required": ["f1", "f2"], "line": 4}
        ]


class TestProcessGenerators:
    def test_seeded_by_process_call_and_yield_from(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/helpers.py": (
                    "def sub_steps(sim):\n"
                    "    yield 1.0\n"
                ),
                "src/app/main.py": (
                    "from app.helpers import sub_steps\n"
                    "def driver(sim):\n"
                    "    yield from sub_steps(sim)\n"
                    "def boot(sim):\n"
                    "    sim.process(driver(sim))\n"
                ),
            },
        )
        index = build_project_index(["src"], root=root)
        procs = index.process_generators()
        assert ("src/app/main.py", "driver") in procs
        # Membership propagates through yield-from delegation.
        assert ("src/app/helpers.py", "sub_steps") in procs

    def test_self_evidencing_generator(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/p.py": (
                    "def worker(sim):\n"
                    "    yield sim.timeout(1.0)\n"
                ),
            },
        )
        index = build_project_index(["src"], root=root)
        assert ("src/app/p.py", "worker") in index.process_generators()

    def test_plain_iterator_generator_not_a_process(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/w.py": (
                    "def workload():\n"
                    "    yield ('file.bin', 3)\n"
                ),
            },
        )
        index = build_project_index(["src"], root=root)
        assert index.process_generators() == set()


class TestSuppressionBridge:
    def test_project_index_honours_inline_suppressions(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/x.py": (
                    "import random\n"
                    "r = random.Random(42)  # simlint: disable=SIM010 -- fixture\n"
                )
            },
        )
        index = build_project_index(["src"], root=root)
        finding = index.finding("SIM010", "src/x.py", 2, "seeded literal")
        assert index.is_suppressed(finding)
        other = index.finding("SIM011", "src/x.py", 2, "other rule")
        assert not index.is_suppressed(other)


class TestFilteredRuns:
    """A ``select``/``ignore`` run equals the full run restricted to
    the active rules, for both reported and suppressed findings."""

    TREE = {
        "src/app/clock.py": (
            "import time\n"
            "T = time.time()\n"  # SIM001
            "U = time.monotonic()  # simlint: disable=SIM001 -- measured\n"
        ),
        "src/app/order.py": (
            "def names(peers):\n"
            "    seen = set(peers)\n"
            "    return [p for p in seen]\n"  # SIM003
        ),
        "src/app/rng.py": "import random\nr = random.Random(42)\n",  # SIM010
        "src/app/config.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    alpha: int = 1\n"
            "    beta: int = 2\n"
            "    def to_dict(self):\n"
            "        return {'alpha': self.alpha}\n"  # SIM014
        ),
    }

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        root = write_tree(tmp_path_factory.mktemp("tree"), self.TREE)
        return root, lint_project(["src"], root=root)

    def test_fixture_covers_both_packs_and_a_suppression(self, full):
        _, result = full
        assert sorted({f.rule for f in result.findings}) == [
            "SIM001", "SIM003", "SIM010", "SIM014",
        ]
        assert [f.rule for f in result.suppressed] == ["SIM001"]

    @pytest.mark.parametrize(
        "select, ignore",
        [
            (["SIM001"], None),
            (["SIM003", "SIM014"], None),
            (["SIM010"], None),
            (["sim001", "SIM010"], None),
            (None, ["SIM001"]),
            (None, ["SIM010", "SIM014"]),
            (["SIM001", "SIM003", "SIM010"], ["SIM003"]),
            (["SIM002"], None),
        ],
    )
    def test_filtered_run_matches_full_run(self, full, select, ignore):
        root, result = full
        wanted = None if select is None else {r.upper() for r in select}

        def kept(findings):
            return [
                f
                for f in findings
                if (wanted is None or f.rule in wanted)
                and f.rule not in (ignore or ())
            ]

        filtered = lint_project(["src"], root=root, select=select, ignore=ignore)
        assert filtered.findings == kept(result.findings)
        assert filtered.suppressed == kept(result.suppressed)
        assert filtered.files == result.files
