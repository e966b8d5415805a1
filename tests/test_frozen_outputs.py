"""The benchmark's frozen seed-0 outputs, checked in the test suite.

``perfbench/expected.json`` holds the outputs of the benchmark's jobs at the
default seed, and the benchmark counts a job whose output leaves them as
failed.  This runs the ``cli-small`` and ``scan-grid`` jobs in-process, with
``perfbench`` on ``sys.path`` as the benchmark's worker has it, and checks
each output the way the worker does, so a frozen-output break shows here
before the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["cli-small", "scan-grid"])
def test_seed_zero_jobs_match_frozen_outputs(workload):
    seed = workloads.DEFAULT_SEED
    frozen = workloads.frozen_outputs(workload, seed)
    problems = {}
    for job in workloads.jobs(workload, seed):
        found = workloads.check_job(job, workloads.plain(job.call()), frozen)
        if found:
            problems[job.name] = found
    assert problems == {}
