"""Synthetic application workloads (files, tasks, generators)."""

from repro.workloads.files import FileSpec
from repro.workloads.generator import Job, WorkloadGenerator
from repro.workloads.traces import (
    ReplayOutcome,
    ReplayReport,
    load_jobs,
    replay,
    save_jobs,
)
from repro.workloads.tasks import (
    VIRTUAL_CAMPUS_TASKS,
    ProcessingTask,
    campus_task,
)

__all__ = [
    "FileSpec",
    "ProcessingTask",
    "VIRTUAL_CAMPUS_TASKS",
    "campus_task",
    "Job",
    "WorkloadGenerator",
    "save_jobs",
    "load_jobs",
    "replay",
    "ReplayReport",
    "ReplayOutcome",
]
