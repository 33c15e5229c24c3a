"""Per-rule fixture tests: one positive and one negative per rule.

Each positive fixture is a minimal snippet that *must* produce exactly
the expected finding; each negative is the sanctioned way of writing
the same thing, which must stay clean.  The fixtures double as the
rule pack's executable specification.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.simlint import lint_project, lint_source


def findings(source: str, scope: str = "sim", **kw):
    result = lint_source(textwrap.dedent(source), scope=scope, **kw)
    return result.findings


def rule_ids(source: str, scope: str = "sim", **kw):
    return [f.rule for f in findings(source, scope=scope, **kw)]


# ---------------------------------------------------------------------------
# SIM001 — wall-clock reads
# ---------------------------------------------------------------------------


class TestSIM001WallClock:
    def test_time_time_flagged(self):
        assert rule_ids(
            """
            import time
            t = time.time()
            """
        ) == ["SIM001"]

    def test_perf_counter_flagged_through_alias(self):
        assert rule_ids(
            """
            import time as clock
            t = clock.perf_counter()
            """
        ) == ["SIM001"]

    def test_datetime_now_flagged(self):
        assert rule_ids(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        ) == ["SIM001"]

    def test_sim_now_is_clean(self):
        assert rule_ids(
            """
            def record(sim):
                return sim.now
            """
        ) == []

    def test_flagged_in_bench_scope_too(self):
        assert rule_ids(
            "import time\nt = time.perf_counter()\n", scope="bench"
        ) == ["SIM001"]


# ---------------------------------------------------------------------------
# SIM002 — global random state
# ---------------------------------------------------------------------------


class TestSIM002GlobalRandom:
    def test_module_random_flagged(self):
        assert rule_ids(
            """
            import random
            x = random.random()
            """
        ) == ["SIM002"]

    def test_random_seed_flagged(self):
        assert rule_ids(
            """
            import random
            random.seed(42)
            """
        ) == ["SIM002"]

    def test_numpy_global_flagged_through_alias(self):
        assert rule_ids(
            """
            import numpy as np
            x = np.random.uniform(0, 1)
            """
        ) == ["SIM002"]

    def test_from_import_flagged(self):
        assert rule_ids(
            """
            from random import choice
            """
        ) == ["SIM002"]

    def test_seeded_instance_is_clean(self):
        assert rule_ids(
            """
            import random
            rng = random.Random(7)
            x = rng.random()
            """,
            select=["SIM002"],  # the literal seed is SIM010's concern
        ) == []

    def test_numpy_generator_construction_is_clean(self):
        assert rule_ids(
            """
            import numpy as np
            seq = np.random.SeedSequence(3, spawn_key=(1,))
            gen = np.random.Generator(np.random.PCG64(seq))
            """,
            select=["SIM002"],  # the literal seed is SIM010's concern
        ) == []


# ---------------------------------------------------------------------------
# SIM003 — unordered set iteration
# ---------------------------------------------------------------------------


class TestSIM003SetIteration:
    def test_for_over_local_set_flagged(self):
        assert rule_ids(
            """
            def f(items):
                seen = set(items)
                for x in seen:
                    print(x)
            """
        ) == ["SIM003"]

    def test_for_over_set_call_flagged(self):
        assert rule_ids(
            """
            def f(items):
                for x in set(items):
                    pass
            """
        ) == ["SIM003"]

    def test_comprehension_over_annotated_set_flagged(self):
        assert rule_ids(
            """
            def f(items):
                live: set = set(items)
                return [x for x in live]
            """
        ) == ["SIM003"]

    def test_self_attribute_set_flagged(self):
        assert rule_ids(
            """
            class Registry:
                def __init__(self):
                    self._down = set()

                def snapshot(self):
                    return list(self._down)
            """
        ) == ["SIM003"]

    def test_dataclass_field_set_flagged(self):
        assert rule_ids(
            """
            from dataclasses import dataclass, field

            @dataclass
            class Group:
                members: set = field(default_factory=set)

                def walk(self):
                    for m in self.members:
                        yield m
            """
        ) == ["SIM003"]

    def test_sorted_wrap_is_clean(self):
        assert rule_ids(
            """
            def f(items):
                seen = set(items)
                for x in sorted(seen):
                    print(x)
            """
        ) == []

    def test_membership_check_is_clean(self):
        assert rule_ids(
            """
            def f(items, probe):
                seen = set(items)
                return probe in seen
            """
        ) == []

    def test_ordered_dict_as_set_is_clean(self):
        assert rule_ids(
            """
            def f(items):
                seen = dict.fromkeys(items)
                for x in seen:
                    print(x)
            """
        ) == []

    def test_vetoed_rebinding_is_clean(self):
        # A name reassigned to a list is no longer set-typed.
        assert rule_ids(
            """
            def f(items):
                seen = set(items)
                seen = sorted(seen)
                for x in seen:
                    print(x)
            """
        ) == []


# ---------------------------------------------------------------------------
# SIM004 — float equality on sim time
# ---------------------------------------------------------------------------


class TestSIM004TimeEquality:
    def test_eq_on_timer_at_flagged(self):
        assert rule_ids(
            """
            def rearm(self, due):
                if due == self._timer_at:
                    return
            """
        ) == ["SIM004"]

    def test_neq_on_now_flagged(self):
        assert rule_ids(
            """
            def check(sim, t):
                return sim.now != t
            """
        ) == ["SIM004"]

    def test_ordering_comparison_is_clean(self):
        assert rule_ids(
            """
            def check(self, due):
                return due < self._timer_at
            """
        ) == []

    def test_non_time_name_is_clean(self):
        assert rule_ids(
            """
            def check(rate, old):
                return rate == old
            """
        ) == []

    def test_not_flagged_in_tests_scope(self):
        # Exact-time assertions are the point of determinism tests.
        assert rule_ids(
            """
            def test_clock(sim):
                assert sim.now == 5.0
            """,
            scope="test",
        ) == []


# ---------------------------------------------------------------------------
# SIM005 — blocking I/O in processes
# ---------------------------------------------------------------------------


class TestSIM005BlockingIO:
    def test_open_in_generator_flagged(self):
        assert rule_ids(
            """
            def proc(sim):
                yield 1.0
                with open("log.txt") as fh:
                    fh.read()
            """
        ) == ["SIM005"]

    def test_time_sleep_in_generator_flagged(self):
        assert rule_ids(
            """
            import time

            def proc(sim):
                time.sleep(0.1)
                yield 1.0
            """
        ) == ["SIM005"]

    def test_open_outside_generator_is_clean(self):
        assert rule_ids(
            """
            def export(path):
                with open(path, "w") as fh:
                    fh.write("x")
            """
        ) == []

    def test_decorated_generator_skipped(self):
        # contextmanagers / pytest fixtures are not kernel processes.
        assert rule_ids(
            """
            from contextlib import contextmanager

            @contextmanager
            def scoped(path):
                fh = open(path)
                yield fh
                fh.close()
            """
        ) == []

    def test_simulated_wait_is_clean(self):
        assert rule_ids(
            """
            def proc(sim):
                yield 1.5
                yield sim.timeout(2.0)
            """
        ) == []


# ---------------------------------------------------------------------------
# SIM006 — instrument binding
# ---------------------------------------------------------------------------


class TestSIM006InstrumentBinding:
    def test_counter_in_method_body_flagged(self):
        assert rule_ids(
            """
            class Peer:
                def on_message(self, reg):
                    reg.counter("peer.messages").inc()
            """
        ) == ["SIM006"]

    def test_histogram_in_function_flagged(self):
        assert rule_ids(
            """
            def record(reg, value):
                reg.histogram("overlay.latency_s").observe(value)
            """
        ) == ["SIM006"]

    def test_binding_in_init_is_clean(self):
        assert rule_ids(
            """
            class Peer:
                def __init__(self, reg):
                    self._m_msgs = reg.counter("peer.messages")

                def on_message(self):
                    self._m_msgs.inc()
            """
        ) == []

    def test_module_level_binding_is_clean(self):
        assert rule_ids(
            """
            import registry
            M_GLOBAL = registry.counter("module.global")
            """
        ) == []

    def test_not_flagged_in_tests_scope(self):
        assert rule_ids(
            """
            def test_counts(reg):
                assert reg.counter("x").value == 0
            """,
            scope="test",
        ) == []


# ---------------------------------------------------------------------------
# SIM007 — bare except / swallowed interrupts
# ---------------------------------------------------------------------------


class TestSIM007SwallowedInterrupt:
    def test_bare_except_flagged(self):
        assert rule_ids(
            """
            def f():
                try:
                    risky()
                except:
                    pass
            """
        ) == ["SIM007"]

    def test_broad_except_in_generator_flagged(self):
        assert rule_ids(
            """
            def proc(sim):
                try:
                    yield 1.0
                except Exception:
                    pass
            """
        ) == ["SIM007"]

    def test_broad_except_with_reraise_is_clean(self):
        assert rule_ids(
            """
            def proc(sim):
                try:
                    yield 1.0
                except BaseException:
                    cleanup()
                    raise
            """
        ) == []

    def test_interrupt_handled_first_is_clean(self):
        assert rule_ids(
            """
            from repro.errors import ProcessInterrupted

            def proc(sim):
                try:
                    yield 1.0
                except ProcessInterrupted:
                    record_cancel()
                except Exception as exc:
                    record_failure(exc)
            """
        ) == []

    def test_narrow_except_in_generator_is_clean(self):
        assert rule_ids(
            """
            def proc(sim):
                try:
                    yield 1.0
                except ValueError:
                    pass
            """
        ) == []

    def test_broad_except_outside_generator_is_clean(self):
        assert rule_ids(
            """
            def drive(fn):
                try:
                    fn()
                except Exception:
                    return None
            """
        ) == []


# ---------------------------------------------------------------------------
# SIM010 — RNG seed lineage
# ---------------------------------------------------------------------------


class TestSIM010RngLineage:
    def sim010(self, source, scope="sim"):
        return [
            f.message for f in findings(source, scope=scope, select=["SIM010"])
        ]

    def test_literal_seed_flagged(self):
        (msg,) = self.sim010(
            """
            import random
            r = random.Random(42)
            """
        )
        assert msg.startswith("random.Random(...) seeded with a literal")
        assert msg.endswith("(literal seed 42)")

    def test_aliased_constructor_tracked(self):
        # R = random.Random; R(1234).
        (msg,) = self.sim010(
            """
            import random
            R = random.Random
            r = R(1234)
            """
        )
        assert "(literal seed 1234)" in msg

    def test_from_import_alias_tracked(self):
        (msg,) = self.sim010(
            """
            from random import Random as Rng
            r = Rng(7)
            """
        )
        assert "(literal seed 7)" in msg

    def test_literal_through_local_variable(self):
        (msg,) = self.sim010(
            """
            import random
            seed = 99
            r = random.Random(seed)
            """
        )
        assert "(literal seed via 'seed')" in msg

    def test_wall_clock_seed_flagged(self):
        (msg,) = self.sim010(
            """
            import random, time
            r = random.Random(time.time())
            """
        )
        assert "seeded from the wall clock" in msg
        assert "(seed from time.time())" in msg

    def test_unseeded_is_entropy(self):
        (msg,) = self.sim010(
            """
            import random
            r = random.Random()
            """
        )
        assert "(no seed argument (OS entropy))" in msg

    def test_derived_seed_is_clean(self):
        # The fix pattern: seed drawn from the session tree.
        assert self.sim010(
            """
            import random
            def make(streams):
                return random.Random(streams.get('x').getrandbits(64))
            """
        ) == []

    def test_tests_and_benchmarks_exempt(self):
        source = """
        import random
        r = random.Random(1)
        """
        assert self.sim010(source, scope="test") == []
        assert self.sim010(source, scope="bench") == []

    def test_inline_suppression_honoured(self):
        result = lint_source(
            "import random\n"
            "r = random.Random(42)  # simlint: disable=SIM010 -- fixture\n",
            scope="sim",
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SIM010"]
        # The suppression covers SIM010 only, not another rule on the line.
        other = lint_source(
            "import random, time\n"
            "r = random.Random(time.time())  "
            "# simlint: disable=SIM010 -- fixture\n",
            scope="sim",
        )
        assert [f.rule for f in other.findings] == ["SIM001"]
        assert [f.rule for f in other.suppressed] == ["SIM010"]

    def test_lint_project_honours_suppression(self, tmp_path):
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
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SIM010"]


# ---------------------------------------------------------------------------
# Cross-cutting
# ---------------------------------------------------------------------------


class TestRulePack:
    def test_every_rule_has_a_rationale(self):
        from repro.simlint import RULES

        for rule in RULES:
            assert rule.id.startswith("SIM")
            assert rule.title
            assert len(rule.rationale) > 20
            assert rule.scopes

    def test_select_restricts_rules(self):
        src = """
        import time
        import random
        t = time.time()
        x = random.random()
        """
        assert rule_ids(src) == ["SIM001", "SIM002"]
        assert rule_ids(src, select=["SIM002"]) == ["SIM002"]
        assert rule_ids(src, ignore=["SIM002"]) == ["SIM001"]

    def test_findings_are_sorted_and_located(self):
        result = lint_source(
            "import time\n\nx = 1\nt = time.time()\n", scope="sim"
        )
        (f,) = result.findings
        assert (f.line, f.rule) == (4, "SIM001")
        assert f.path == "<memory>"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


class TestFilteredRuns:
    """A ``select``/``ignore`` run of :func:`lint_project` equals the
    full run restricted to the active rules, for both reported and
    suppressed findings."""

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
    }

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        root = write_tree(tmp_path_factory.mktemp("tree"), self.TREE)
        return root, lint_project(["src"], root=root)

    def test_fixture_covers_three_rules_and_a_suppression(self, full):
        _, result = full
        assert sorted({f.rule for f in result.findings}) == [
            "SIM001", "SIM003", "SIM010",
        ]
        assert [f.rule for f in result.suppressed] == ["SIM001"]

    @pytest.mark.parametrize(
        "select, ignore",
        [
            (["SIM001"], None),
            (["SIM003", "SIM010"], None),
            (["SIM010"], None),
            (["sim001", "SIM010"], None),
            (None, ["SIM001"]),
            (None, ["SIM010", "SIM003"]),
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

    def test_select_sim010_only(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "src/app/a.py": (
                    "import random, time\n"
                    "t = time.time()\n"  # SIM001
                    "r = random.Random(42)\n"  # SIM010
                ),
            },
        )
        result = lint_project(["src"], root=root, select=["SIM010"])
        assert [f.rule for f in result.findings] == ["SIM010"]
