"""The cross-module rule pack (SIM010–SIM014) on synthetic fixtures.

Each rule gets a flagged fixture (proving it fires) and a clean
fixture (proving the fix pattern passes) — the acceptance evidence
for rule families with no real instances in the repo.
"""

from __future__ import annotations

from repro.simlint.project import build_project_index, lint_project
from repro.simlint.project_rules import PROJECT_RULES_BY_ID


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def run_rule(rule_id, tmp_path, files):
    root = write_tree(tmp_path, files)
    index = build_project_index(["src"], root=root)
    return PROJECT_RULES_BY_ID[rule_id].check(index)


CATALOG = (
    "from repro.obs.metric_catalog import MetricSpec\n"
    "METRICS = (\n"
    "    MetricSpec('net.messages_sent', 'counter', 'simnet', 'd'),\n"
    "    MetricSpec('net.queue_depth', 'gauge', 'simnet', 'd'),\n"
    ")\n"
)

SCHEMA = (
    "from repro.obs.trace_schema import TraceEventSpec\n"
    "TRACE_EVENTS = (\n"
    "    TraceEventSpec('msg-send', ('src', 'dst'), 'simnet', 'd'),\n"
    ")\n"
)


class TestSim010RngLineage:
    def test_literal_wallclock_and_entropy_seeds_flagged(self, tmp_path):
        findings = run_rule(
            "SIM010",
            tmp_path,
            {
                "src/app/a.py": "import random\nr = random.Random(42)\n",
                "src/app/b.py": (
                    "import random, time\n"
                    "r = random.Random(time.time())\n"
                ),
                "src/app/c.py": "import random\nr = random.Random()\n",
            },
        )
        assert sorted(f.path for f in findings) == [
            "src/app/a.py",
            "src/app/b.py",
            "src/app/c.py",
        ]
        assert all(f.rule == "SIM010" for f in findings)

    def test_derived_seed_clean_and_tests_exempt(self, tmp_path):
        findings = run_rule(
            "SIM010",
            tmp_path,
            {
                # The fix pattern: seed drawn from the session tree.
                "src/app/clean.py": (
                    "import random\n"
                    "def make(streams):\n"
                    "    return random.Random("
                    "streams.get('fault').getrandbits(64))\n"
                ),
                # Tests may construct throwaway seeded RNGs freely.
                "tests/test_x.py": "import random\nr = random.Random(1)\n",
            },
        )
        assert findings == []


class TestSim011MetricCatalog:
    def test_dormant_without_catalog(self, tmp_path):
        findings = run_rule(
            "SIM011",
            tmp_path,
            {"src/app/m.py": "def f(reg):\n    c = reg.counter('no.catalog')\n"},
        )
        assert findings == []

    def test_unregistered_name_flagged_with_did_you_mean(self, tmp_path):
        findings = run_rule(
            "SIM011",
            tmp_path,
            {
                "src/obs/metric_catalog.py": CATALOG,
                "src/app/m.py": (
                    "class C:\n"
                    "    def __init__(self, reg):\n"
                    "        self.sent = reg.counter('net.messages_snet')\n"
                    "        self.depth = reg.gauge('net.queue_depth')\n"
                ),
            },
        )
        (finding,) = [f for f in findings if f.path == "src/app/m.py"]
        assert "net.messages_snet" in finding.message
        assert "did you mean 'net.messages_sent'" in finding.message

    def test_kind_mismatch_and_orphan_flagged(self, tmp_path):
        findings = run_rule(
            "SIM011",
            tmp_path,
            {
                "src/obs/metric_catalog.py": CATALOG,
                "src/app/m.py": (
                    "class C:\n"
                    "    def __init__(self, reg):\n"
                    "        self.sent = reg.gauge('net.messages_sent')\n"
                ),
            },
        )
        messages = " | ".join(f.message for f in findings)
        assert "published as gauge but declared as counter" in messages
        # net.queue_depth is declared but never published.
        assert "orphan catalog entry" in messages

    def test_fully_consistent_tree_clean(self, tmp_path):
        findings = run_rule(
            "SIM011",
            tmp_path,
            {
                "src/obs/metric_catalog.py": CATALOG,
                "src/app/m.py": (
                    "class C:\n"
                    "    def __init__(self, reg):\n"
                    "        self.sent = reg.counter('net.messages_sent')\n"
                    "        self.depth = reg.gauge('net.queue_depth')\n"
                ),
            },
        )
        assert findings == []


class TestSim012TraceSchema:
    def test_unknown_event_and_missing_field_flagged(self, tmp_path):
        findings = run_rule(
            "SIM012",
            tmp_path,
            {
                "src/obs/trace_schema.py": SCHEMA,
                "src/app/t.py": (
                    "def f(tracer, now):\n"
                    "    tracer.record('msg-snd', now, src='a', dst='b')\n"
                    "    tracer.record('msg-send', now, src='a')\n"
                ),
            },
        )
        messages = " | ".join(f.message for f in findings)
        assert "did you mean 'msg-send'" in messages
        assert "without required field(s) ['dst']" in messages

    def test_star_kwargs_trusted_and_clean_site_passes(self, tmp_path):
        findings = run_rule(
            "SIM012",
            tmp_path,
            {
                "src/obs/trace_schema.py": SCHEMA,
                "src/app/t.py": (
                    "def f(tracer, now, **attrs):\n"
                    "    tracer.record('msg-send', now, src='a', **attrs)\n"
                ),
            },
        )
        assert findings == []

    def test_orphan_schema_entry_flagged(self, tmp_path):
        findings = run_rule(
            "SIM012",
            tmp_path,
            {"src/obs/trace_schema.py": SCHEMA},
        )
        (finding,) = findings
        assert "orphan schema entry" in finding.message
        assert finding.path == "src/obs/trace_schema.py"


class TestSim013ProcessYields:
    def test_string_yield_in_process_flagged(self, tmp_path):
        findings = run_rule(
            "SIM013",
            tmp_path,
            {
                "src/app/p.py": (
                    "def worker(sim):\n"
                    "    yield sim.timeout(1.0)\n"
                    "    yield 'not-an-event'\n"
                ),
            },
        )
        (finding,) = findings
        assert "string/bytes literal" in finding.message

    def test_raw_generator_yield_flagged_through_resolution(self, tmp_path):
        findings = run_rule(
            "SIM013",
            tmp_path,
            {
                "src/app/p.py": (
                    "def sub(sim):\n"
                    "    yield sim.timeout(1.0)\n"
                    "def worker(sim):\n"
                    "    yield sim.timeout(1.0)\n"
                    "    yield sub(sim)\n"
                ),
            },
        )
        (finding,) = findings
        assert "raw generator sub()" in finding.message

    def test_primitive_number_and_helper_yields_clean(self, tmp_path):
        findings = run_rule(
            "SIM013",
            tmp_path,
            {
                "src/app/p.py": (
                    "def make_wait(sim):\n"
                    "    return sim.timeout(2.0)\n"
                    "def worker(sim):\n"
                    "    yield sim.timeout(1.0)\n"
                    "    yield 0.5\n"
                    "    yield make_wait(sim)\n"
                    "    yield sim.process(worker(sim))\n"
                ),
            },
        )
        assert findings == []

    def test_plain_iterator_generators_exempt(self, tmp_path):
        findings = run_rule(
            "SIM013",
            tmp_path,
            {
                "src/app/w.py": (
                    "def workload():\n"
                    "    yield ('file.bin', 3)\n"
                ),
            },
        )
        assert findings == []


class TestSim014ConfigRoundtrip:
    def test_missing_field_flagged(self, tmp_path):
        findings = run_rule(
            "SIM014",
            tmp_path,
            {
                "src/app/config.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class Knobs:\n"
                    "    alpha: int = 1\n"
                    "    beta: float = 0.5\n"
                    "    def to_dict(self):\n"
                    "        return {'alpha': self.alpha}\n"
                ),
            },
        )
        (finding,) = findings
        assert "field(s) ['beta']" in finding.message

    def test_asdict_serializers_skipped(self, tmp_path):
        findings = run_rule(
            "SIM014",
            tmp_path,
            {
                "src/app/config.py": (
                    "import dataclasses\n"
                    "from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class Knobs:\n"
                    "    alpha: int = 1\n"
                    "    beta: float = 0.5\n"
                    "    def to_dict(self):\n"
                    "        return dataclasses.asdict(self)\n"
                ),
            },
        )
        assert findings == []

    def test_complete_hand_rolled_serializer_clean(self, tmp_path):
        findings = run_rule(
            "SIM014",
            tmp_path,
            {
                "src/app/config.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class Knobs:\n"
                    "    alpha: int = 1\n"
                    "    beta: float = 0.5\n"
                    "    def to_dict(self):\n"
                    "        return {'alpha': self.alpha, 'beta': self.beta}\n"
                ),
            },
        )
        assert findings == []


class TestLintProjectIntegration:
    def test_project_findings_respect_suppressions(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/a.py": (
                    "import random\n"
                    "r = random.Random(42)  "
                    "# simlint: disable=SIM010 -- fixture generator\n"
                ),
            },
        )
        result = lint_project(["src"], root=root)
        assert [f.rule for f in result.findings] == []
        assert [f.rule for f in result.suppressed] == ["SIM010"]

    def test_select_project_rule_only(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/a.py": (
                    "import random, time\n"
                    "t = time.time()\n"          # SIM001 (per-file)
                    "r = random.Random(42)\n"    # SIM010 (project)
                ),
            },
        )
        result = lint_project(["src"], root=root, select=["SIM010"])
        assert [f.rule for f in result.findings] == ["SIM010"]

    def test_no_project_flag_skips_pack(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"src/app/a.py": "import random\nr = random.Random(42)\n"},
        )
        result = lint_project(["src"], root=root, project_rules=False)
        assert result.findings == []
