"""Inline-suppression handling: line, multi-rule, file-wide, multiline."""

from __future__ import annotations

import textwrap

from repro.simlint import lint_source


def lint(source: str, **kw):
    return lint_source(textwrap.dedent(source), scope="sim", **kw)


class TestLineSuppressions:
    def test_same_line_disable_suppresses(self):
        result = lint(
            """
            import time
            t = time.time()  # simlint: disable=SIM001 -- measured wall-clock
            """
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SIM001"]

    def test_disable_only_covers_its_line(self):
        result = lint(
            """
            import time
            a = time.time()  # simlint: disable=SIM001 -- justified here
            b = time.time()
            """
        )
        assert [f.rule for f in result.findings] == ["SIM001"]
        assert result.findings[0].line == 4

    def test_disable_is_rule_specific(self):
        result = lint(
            """
            import time
            t = time.time()  # simlint: disable=SIM003 -- wrong rule id
            """
        )
        assert [f.rule for f in result.findings] == ["SIM001"]

    def test_multi_rule_disable(self):
        result = lint(
            """
            import time, random
            t = time.time() + random.random()  # simlint: disable=SIM001,SIM002 -- both justified
            """
        )
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == ["SIM001", "SIM002"]

    def test_blanket_disable_covers_all_rules_on_line(self):
        result = lint(
            """
            import time, random
            t = time.time() + random.random()  # simlint: disable
            """
        )
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_multiline_statement_suppressed_from_any_line(self):
        # The disable sits on the last physical line of the statement.
        result = lint(
            """
            import time
            t = (
                time.time()
            )  # simlint: disable=SIM001 -- measured
            """
        )
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_body_comment_does_not_cover_compound_header(self):
        # The SIM003 sits on the ``for`` header; the disable in the
        # body is about line 4 only.
        result = lint(
            """
            s = set(peers)
            for p in s:
                y = 2  # simlint: disable -- unrelated
            """
        )
        assert [(f.rule, f.line) for f in result.findings] == [("SIM003", 3)]
        assert result.suppressed == []

    def test_body_comment_does_not_cover_with_or_def_header(self):
        result = lint(
            """
            import time
            def f(t=time.time()):
                return 1  # simlint: disable=SIM001 -- unrelated
            with open(time.time()):
                pass  # simlint: disable=SIM001 -- unrelated
            """
        )
        assert [f.line for f in result.findings] == [3, 5]

    def test_multiline_compound_header_suppressed_from_any_header_line(self):
        result = lint(
            """
            s = set(peers)
            for p in (
                s
            ):  # simlint: disable=SIM003 -- order-free body
                y = 2
            """
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SIM003"]


class TestFileSuppressions:
    def test_disable_file_covers_whole_module(self):
        result = lint(
            """
            # simlint: disable-file=SIM001 -- benchmark harness measures real time
            import time
            a = time.time()
            b = time.perf_counter()
            """
        )
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_disable_file_is_rule_specific(self):
        result = lint(
            """
            # simlint: disable-file=SIM001
            import time, random
            a = time.time()
            x = random.random()
            """
        )
        assert [f.rule for f in result.findings] == ["SIM002"]
