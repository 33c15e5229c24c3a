"""Tests of the benchmark itself, on tiny configs (about 10 s).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig

from benchmarks.suite import compare, measure, run, workloads
from benchmarks.suite.tracer import layer_of
from benchmarks.suite.workloads import Artifact

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = [7, 8, 9]


def unchecked(artifacts):
    """The artifacts without their criteria, which tiny configs break."""
    return tuple(dataclasses.replace(a, check=None) for a in artifacts)


def tiny_paper(seed):
    return unchecked(workloads.paper(ExperimentConfig(seed=seed, repetitions=1)))


def tiny_federated(seed):
    return unchecked(workloads.federated(ExperimentConfig(seed=seed, repetitions=1),
                                         pools=(100,), baseline_pool=100))


@pytest.fixture(autouse=True, scope="module")
def one_import_probe():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "import_seconds", lambda: [0.5])
        yield


@pytest.fixture(scope="module")
def untraced():
    run = measure.measure(lambda s: tiny_paper(s)[:3], SEEDS, 0.01)
    return measure.report("paper", 1, 0.01, run)


@pytest.fixture(scope="module")
def traced():
    run = measure.measure(lambda s: tiny_federated(s) + tiny_paper(s)[:1], SEEDS,
                          0.01, trace=True)
    return measure.report("federated", 1, 0.01, run)


def test_each_input_repeats_its_digest(untraced):
    assert untraced["inputs"] == SEEDS
    assert untraced["iterations"] == len(SEEDS) + 1
    digests = untraced["digests"]
    assert all(len(d) == 1 for d in digests.values())
    assert len({d[0] for d in digests.values()}) == len(SEEDS)
    assert untraced["result_digest"] == digests["7"][0]
    assert untraced["correct"] and untraced["failed"] == 0


def test_traced_digest_equals_untraced(traced):
    assert traced["inputs"] == SEEDS[:1]
    assert traced["iterations"] == 1 and traced["traced_iterations"] >= 1
    assert traced["result_digest"] is not None, traced["digests"]


def test_trace_covers_most_of_the_run(traced):
    assert traced["metrics"]["trace.coverage"] >= 0.8
    assert traced["metrics"]["gossip.self_s"] > 0
    assert traced["metrics"]["transport.msgs.GossipPing"] > 0
    # Read off the tracer's own span, so it cannot exceed the iteration.
    assert 0 < traced["metrics"]["experiments.session_init_s"] < max(
        traced["iteration_wall_s"])


def test_every_declared_metric_is_emitted_with_its_unit(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "build", lambda name, seed: tiny_paper(seed)[:2])
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        status = run.main(["--workload", "paper", "--seed", "7",
                           "--seconds", "0.01", "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert status == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {ln.split()[1]: ln.split()[3] for ln in lines[:-1]
                   if not ln.startswith("#")}
        assert printed == declared


def test_raising_artifact_counts_as_failed_without_aborting():
    def boom():
        raise RuntimeError("forced")

    def build(seed):
        fig2, fig3 = tiny_paper(seed)[:2]
        return (fig2, Artifact("boom", boom), fig3)

    run = measure.measure(build, SEEDS, 0.01)
    record = measure.report("paper", 1, 0.01, run)
    n = record["iterations"]
    assert record["attempted"] == 3 * n
    assert record["failed"] == n and record["failed"] / record["attempted"] > 0
    assert record["errors"] == ["boom: RuntimeError"]
    assert not record["correct"]
    assert set(run.iterations[-1].results) == {"fig2", "fig3"}
    assert record["metrics"]["ok_frac"] < 1.0


def test_unmet_enforced_criterion_fails_the_run():
    def build(seed):
        fig2 = tiny_paper(seed)[0]
        never = lambda r: [workloads.Criterion("never", False)]  # noqa: E731
        return (Artifact("fig2", fig2.run, never),)

    run = measure.measure(build, SEEDS, 0.01)
    record = measure.report("paper", 1, 0.01, run)
    # Checked once per input, on its last iteration.
    assert len(record["unmet"]) == len(SEEDS)
    assert record["failed"] == len(SEEDS) and not record["correct"]


def test_missing_program_source_exits_nonzero_without_result(tmp_path):
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    shutil.copy(HERE / "run.py", suite / "run.py")
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_hung_run_exits_nonzero_without_result():
    script = f"""
import sys, time
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT)!r}]
from benchmarks.suite import measure, run, workloads
workloads.build = lambda name, seed: (workloads.Artifact("hang", lambda: time.sleep(60)),)
measure.import_seconds = lambda: [0.5]
run.GRACE_S = 1.0
sys.exit(run.main(["--workload", "paper", "--seed", "1", "--seconds", "0.5",
                   "--trace", "0"]))
"""
    # The watchdog ends it after about 1.5 s, well before the timeout.
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "Timeout" in proc.stderr


def test_inputs_are_vetted_and_fixed_by_the_seed():
    picked = workloads.inputs(2007)
    assert picked == workloads.inputs(2007) != workloads.inputs(2011)
    assert len(set(picked)) == workloads.INPUTS_PER_RUN
    assert set(picked) <= set(workloads.INPUT_SEEDS)


def test_layer_of_module_paths():
    root = "/x/src/repro"
    assert layer_of(f"{root}/simnet/kernel.py", "Simulator.step") == "kernel"
    assert layer_of(f"{root}/simnet/transport.py", "FlowScheduler._on_timer") == "flows"
    assert layer_of(f"{root}/simnet/topology.py", "Topology.path") == "transport"
    assert layer_of(f"{root}/gossip/swim.py", "SwimAgent._probe") == "gossip"
    assert layer_of(f"{root}/experiments/scale.py", "_scenario") == "experiments"


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], "lower", "improved"),
    ([10, 10.1, 9.9, 10, 10.2], [13, 13.1, 12.9, 13, 13.2], "lower", "regressed"),
    ([10, 10.1, 9.9, 10, 10.2], [10.1, 10, 10.2, 9.9, 10], "lower", "unchanged"),
    ([10, 20, 5, 15, 30], [9, 19, 6, 14, 29], "lower", "unresolved"),
    ([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], "higher", "regressed"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)[0] == expected


def test_a_faster_change_that_fails_more_is_not_improved():
    faster = compare.verdict([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2],
                             "lower", 0.1, fails_more=True)
    assert faster[0] == "unresolved"

    def record(seed, failed, ok_frac, correct=True):
        return {"seed": seed, "failed": failed, "correct": correct,
                "metrics": {"ok_frac": {"value": ok_frac, "unit": "ratio"}}}

    parent = [record(1, 0, 0.98), record(2, 0, 0.97)]
    assert compare.more_failures(parent, parent) == []
    assert len(compare.more_failures(parent, [record(1, 1, 0.98, correct=False),
                                              record(2, 0, 0.96)])) == 3
