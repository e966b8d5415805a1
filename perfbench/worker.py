"""One benchmark pass in a fresh interpreter.

Imports kfree from ``src/`` of the checkout, runs the workload's jobs back to
back, measures them, checks their outputs and prints one JSON line:

    python3 perfbench/worker.py --workload scan-grid --seed 0 --trace 0

``--setup-only`` stops after the import.  ``--trace 1`` wraps the library's
entry points (see tracing.py), reports per-layer metrics and writes the spans
to the ``--sidecar`` file.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import kfree  # noqa: E402  (setup_s ends when this import is done)

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_pass(workload: str, seed: int, traced: bool, sidecar):
    import tracing
    import workloads

    jobs = workloads.jobs(workload, seed)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    outputs, errors = [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for job in jobs:
        try:
            outputs.append(job.call())
            errors.append(None)
        except Exception as exc:  # a failing job is counted, the others still run
            traceback.print_exc()
            outputs.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.active = False
        report["layers"] = tracing.layer_metrics(tracer.spans)
        if sidecar:
            Path(sidecar).parent.mkdir(parents=True, exist_ok=True)
            spans = [[name, s - start, e - start, parent] for name, s, e, parent, _ in tracer.spans]
            Path(sidecar).write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))

    # checks run after the timed region, so they cost no wall, cpu or peak memory above
    frozen = workloads.frozen_outputs(workload, seed)
    plain = [None if out is None else workloads.plain(out) for out in outputs]
    failures = []
    for job, out, error in zip(jobs, plain, errors):
        problems = [error] if error else workloads.check_job(job, out, frozen)
        if problems:
            failures.append({"job": job.name, "problems": problems})
    report.update(attempted=len(jobs), failed=len(failures), failures=failures)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sidecar", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(kfree.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: kfree was imported from {kfree.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = {"import_done": IMPORT_DONE}
    if not args.setup_only:
        report.update(run_pass(args.workload, args.seed, bool(args.trace), args.sidecar))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
