"""Smoke test: examples/churn_and_failover.py runs end to end."""

from __future__ import annotations

import pathlib
import runpy

EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "examples"
    / "churn_and_failover.py"
)


def test_churn_and_failover_example_runs(capsys):
    runpy.run_path(str(EXAMPLE), run_name="__main__")
    out = capsys.readouterr().out
    assert "after the liveness window lapses:    SC4 in view = False" in out
    assert "economic  :" in out
    assert "backup governor replicating" in out
    assert "now homed at: backup-broker" in out
    assert "SC2 registered at backup: True" in out
