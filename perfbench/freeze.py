"""Rewrite expected.json with every workload's default-seed outputs at this commit.

    python3 perfbench/freeze.py

Only for a change that is meant to alter these outputs; the benchmark compares
default-seed runs against the file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from catalog import WORKLOADS  # noqa: E402

frozen = {
    workload: {job.name: workloads.plain(job.call()) for job in workloads.jobs(workload, workloads.DEFAULT_SEED)}
    for workload in WORKLOADS
}
workloads.EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
