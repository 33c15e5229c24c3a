"""Smoke test: every example runs end to end.

``churn_and_failover`` and ``federation`` have their own tests, which
also check what they print; every other example runs here.
"""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

OWN_TESTS = ("churn_and_failover", "federation")
SMOKED = (
    "file_sharing",
    "quickstart",
    "reproduce_paper",
    "selection_tour",
    "swarm_download",
    "trace_replay",
    "virtual_campus",
)


def test_every_example_is_covered():
    names = {path.stem for path in EXAMPLES.glob("*.py")}
    assert names == set(OWN_TESTS) | set(SMOKED)


@pytest.mark.parametrize("name", SMOKED)
def test_example_runs(name, monkeypatch, capsys):
    path = EXAMPLES / f"{name}.py"
    # reproduce_paper parses the command line; give it no arguments.
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
