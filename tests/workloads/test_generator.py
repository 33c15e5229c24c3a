"""Tests for workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.generator import Job, WorkloadGenerator
from repro.workloads.files import FileSpec
from repro.workloads.tasks import ProcessingTask


def rng(seed=0):
    return np.random.default_rng(seed)


class TestJobValidation:
    def test_transfer_needs_file(self):
        with pytest.raises(ValueError):
            Job(arrival_s=0.0, kind="transfer")

    def test_task_needs_task(self):
        with pytest.raises(ValueError):
            Job(arrival_s=0.0, kind="task")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Job(arrival_s=0.0, kind="sprocket")

    def test_negative_arrival(self):
        f = FileSpec.of_mbit("x", 1.0)
        with pytest.raises(ValueError):
            Job(arrival_s=-1.0, kind="transfer", file=f)

    def test_valid_task_job(self):
        t = ProcessingTask(name="t", base_ops=1.0)
        job = Job(arrival_s=0.0, kind="task", task=t)
        assert job.task.ops == 1.0


class TestBatch:
    def test_batch_size_and_time(self):
        gen = WorkloadGenerator(rng())
        jobs = gen.batch(10, start_s=5.0)
        assert len(jobs) == 10
        assert all(j.arrival_s == 5.0 for j in jobs)

    def test_sizes_from_catalog(self):
        gen = WorkloadGenerator(rng(), sizes_mb=(25.0, 100.0))
        jobs = gen.batch(50)
        sizes = {j.file.size_bits / 1e6 for j in jobs if j.file}
        assert sizes <= {25.0, 100.0}

    def test_task_share_respected(self):
        gen = WorkloadGenerator(rng(), task_share=1.0)
        jobs = gen.batch(10)
        assert all(j.kind == "task" for j in jobs)

    def test_zero_task_share_all_transfers(self):
        gen = WorkloadGenerator(rng(), task_share=0.0)
        jobs = gen.batch(10)
        assert all(j.kind == "transfer" for j in jobs)

    def test_unique_names(self):
        gen = WorkloadGenerator(rng())
        jobs = gen.batch(20)
        names = [j.file.name for j in jobs]
        assert len(set(names)) == 20


class TestPoisson:
    def test_arrivals_within_horizon(self):
        gen = WorkloadGenerator(rng())
        jobs = list(gen.poisson(rate_per_s=0.5, horizon_s=100.0, start_s=10.0))
        assert all(10.0 <= j.arrival_s < 110.0 for j in jobs)

    def test_arrivals_sorted(self):
        gen = WorkloadGenerator(rng())
        jobs = list(gen.poisson(rate_per_s=1.0, horizon_s=50.0))
        arrivals = [j.arrival_s for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_mean_rate_roughly_matches(self):
        gen = WorkloadGenerator(rng(1))
        jobs = list(gen.poisson(rate_per_s=2.0, horizon_s=500.0))
        assert len(jobs) == pytest.approx(1000, rel=0.2)

    def test_deterministic_given_seed(self):
        a = list(WorkloadGenerator(rng(3)).poisson(1.0, 50.0))
        b = list(WorkloadGenerator(rng(3)).poisson(1.0, 50.0))
        assert [j.arrival_s for j in a] == [j.arrival_s for j in b]


class TestValidation:
    def test_bad_task_share(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(rng(), task_share=1.5)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(rng(), sizes_mb=())
        with pytest.raises(ValueError):
            WorkloadGenerator(rng(), sizes_mb=(0.0,))

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(rng(), n_parts_choices=(0,))

    def test_bad_poisson_params(self):
        gen = WorkloadGenerator(rng())
        with pytest.raises(ValueError):
            list(gen.poisson(0.0, 10.0))
        with pytest.raises(ValueError):
            list(gen.poisson(1.0, 0.0))

    def test_negative_batch(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(rng()).batch(-1)
