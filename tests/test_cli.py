"""Tests for the ``python -m repro`` command-line entry point."""

from __future__ import annotations

import pytest

from repro.__main__ import ARTIFACTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig2", "fig7", "scale"):
            assert name in out

    def test_unknown_artifact_fails(self, capsys):
        assert main(["fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_single_artifact_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "planetlab1.itwm.fhg.de" in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-3", "seed must be >= 0"),
        ("--reps", "0", "repetitions must be >= 1"),
    ])
    def test_bad_seed_or_reps_fails_cleanly(self, flag, value, message, capsys):
        assert main(["fig2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--seed/--reps: {message}\n"
        assert "fig2" not in captured.out  # rejected before the run

    def test_fig2_with_custom_config(self, capsys):
        assert main(["fig2", "--seed", "11", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "SC7" in out and "27.13" in out

    def test_artifact_catalog_complete(self):
        assert set(ARTIFACTS) == {
            "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "scale", "scale-large", "scale-federated", "churn",
            "resilience", "swarming",
        }

    def test_default_run_excludes_opt_in_artifacts(self):
        from repro.__main__ import _OPT_IN

        # The default "run everything" set must skip the slow opt-in
        # artifacts (scale-large runs 100/500/1000-peer pools).
        assert "scale-large" in _OPT_IN
        assert _OPT_IN < set(ARTIFACTS)


class TestCliFaults:
    def test_unknown_profile_fails(self, capsys):
        assert main(["fig2", "--faults", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_faults_installs_plan_on_config(self, monkeypatch):
        # Intercept the runner: assert the config the artifact receives
        # carries the named plan (without paying for a full matrix).
        from repro import __main__ as cli

        seen = {}

        def fake_runner(config):
            seen["plan"] = config.fault_plan
            return "ok"

        monkeypatch.setitem(
            cli.ARTIFACTS, "resilience", ("stub", fake_runner)
        )
        assert main(["--faults", "straggler"]) == 0
        assert seen["plan"] is not None
        assert seen["plan"].name == "straggler"


class TestCliConfigFile:
    def test_config_file_used(self, tmp_path, capsys):
        from repro.experiments import ExperimentConfig

        path = tmp_path / "cfg.json"
        ExperimentConfig(seed=11, repetitions=2).save(path)
        assert main(["fig2", "--config", str(path)]) == 0
        assert "SC7" in capsys.readouterr().out


class TestCliMetricsOut:
    def test_metrics_out_writes_json_with_histograms(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["fig2", "--reps", "2", "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out

        data = json.loads(path.read_text())
        # The acceptance metrics: petition latency and per-part
        # transfer time histograms, populated by the fig2 run.
        assert data["histograms"]["overlay.petition_latency_s"]["count"] > 0
        assert data["histograms"]["overlay.part_transfer_s"]["count"] > 0
        assert data["counters"]["kernel.events_processed"] > 0
        assert data["counters"]["flow.finished"] > 0
        assert data["counters"]["broker.joins"] > 0

    def test_metrics_out_csv(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        assert main(["fig2", "--reps", "1", "--metrics-out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("kind,name,field,value")
        assert "histogram,overlay.petition_latency_s,count," in text

    def test_without_flag_no_registry_is_installed(self, capsys):
        from repro.obs.runtime import active_registry

        assert main(["table1"]) == 0
        assert not active_registry().enabled

    def test_metrics_out_bad_directory_fails_fast(self, capsys):
        assert main(["fig2", "--metrics-out", "/nonexistent/dir/m.json"]) == 2
        captured = capsys.readouterr()
        assert "does not exist" in captured.err
        assert "fig2" not in captured.out  # rejected before the run

    def test_missing_config_file_fails(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["fig2", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--config:") and "absent.json" in err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "bogus": 2}')
        assert main(["fig2", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--config:") and "bogus" in err

    def test_unknown_peer_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "peer_config": {"part_io_bps": 1.0}}')
        assert main(["fig2", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--config:") and "part_io_bps" in err


class TestCliFederated:
    def test_churn_and_resilience_run_federated(self, capsys):
        # Churn's informed policies see the federation's live view, and
        # resilience estimates candidates from other shards' registries.
        assert main(["churn", "resilience", "--federated", "--reps", "2"]) == 0
        rates = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 4 and cells[0] in ("economic", "same_priority"):
                rates[cells[0]] = float(cells[1])
        assert set(rates) == {"economic", "same_priority"}
        assert all(rate > 0 for rate in rates.values()), rates

    def test_scale_and_swarming_run_federated(self, capsys):
        # Their extra peers join their own shards (the head broker
        # refuses a peer another shard owns), and both studies place
        # over the union of the live shards' registries.
        assert main(["scale", "swarming", "--federated", "--reps", "1"]) == 0
        costs = {}
        completions = []
        for line in capsys.readouterr().out.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 4 and cells[0] in ("blind", "economic", "same_priority"):
                costs[cells[0]] = [float(cell) for cell in cells[1:]]
            if len(cells) == 7 and cells[0] == "synthetic":
                completions.append(float(cells[4]))
        assert set(costs) == {"blind", "economic", "same_priority"}
        assert all(cost > 0 for row in costs.values() for cost in row), costs
        assert any(c > 0 for c in completions), completions
