"""CLI behaviour: exit codes, formats, stats, rule selection, no state."""

from __future__ import annotations

import json

from repro.simlint.cli import main

CLEAN = "def f(sim):\n    return sim.now\n"
DIRTY = "import time\nt = time.time()\n"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_0(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/ok.py": CLEAN})
        assert main(["src", "--root", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        assert main(["src", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "src/bad.py:2:5: SIM001" in out

    def test_no_paths_exits_2(self, capsys):
        assert main([]) == 2
        assert "no paths given" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["nowhere", "--root", str(tmp_path)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/broken.py": "def f(:\n"})
        assert main(["src", "--root", str(root)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/ok.py": CLEAN})
        assert main(["src", "--root", str(root), "--select", "SIM999"]) == 2

    def test_empty_rule_list_exits_2(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        for flag in ("--select", "--ignore"):
            for value in ("", ","):
                assert main(["src", "--root", str(root), flag, value]) == 2
                err = capsys.readouterr().err
                assert f"{flag} needs at least one rule id" in err

    def test_suppressed_findings_exit_0(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            {
                "src/ok.py": (
                    "import time\n"
                    "t = time.time()  # simlint: disable=SIM001 -- measured\n"
                )
            },
        )
        assert main(["src", "--root", str(root)]) == 0
        assert "1 suppressed" in capsys.readouterr().out


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        assert main(["src", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "SIM001"
        assert finding["path"] == "src/bad.py"

    def test_github_format_annotates(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        assert main(["src", "--root", str(root), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/bad.py,line=2," in out
        assert "title=SIM001" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "SIM001", "SIM002", "SIM003", "SIM004",
            "SIM005", "SIM006", "SIM007", "SIM010",
        ):
            assert rule_id in out

    def test_list_rules_drops_whole_program_pack(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SIM010" in out
        for rule_id in ("SIM011", "SIM012", "SIM013", "SIM014"):
            assert rule_id not in out

    def test_stats_reports_rule_hits(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        assert main(["src", "--root", str(root), "--stats"]) == 1
        out = capsys.readouterr().out
        assert "rule hits: SIM001=1" in out
        assert "files/s" in out


class TestRuleSelection:
    def test_select_project_rule_via_cli(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            {"src/a.py": "import random\nr = random.Random(42)\n"},
        )
        assert main(["src", "--root", str(root), "--select", "SIM010"]) == 1
        assert "SIM010" in capsys.readouterr().out


class TestNoState:
    def test_lint_writes_nothing(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/a.py": CLEAN, "src/bad.py": DIRTY})
        before = sorted(p.relative_to(root) for p in root.rglob("*"))
        assert main(["src", "--root", str(root)]) == 1
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == before

    def test_repeat_run_is_identical(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/bad.py": DIRTY})
        main(["src", "--root", str(root), "--format", "json"])
        first = json.loads(capsys.readouterr().out)
        main(["src", "--root", str(root), "--format", "json"])
        assert json.loads(capsys.readouterr().out) == first


class TestScopes:
    def test_test_paths_skip_sim_only_rules(self, tmp_path, capsys):
        # SIM004 patrols library code, not determinism tests.
        source = "def test_t(sim):\n    assert sim.now == 5.0\n"
        root = write_tree(
            tmp_path,
            {"tests/test_x.py": source, "src/lib.py": source.replace("test_t", "check")},
        )
        assert main(["tests", "--root", str(root)]) == 0
        capsys.readouterr()
        assert main(["src", "--root", str(root)]) == 1
        assert "SIM004" in capsys.readouterr().out
