"""kfree benchmark: runs one workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload scan-grid --seed 0 --seconds 20 --trace 0

Load is a closed loop with one client: each pass runs the workload's jobs
back to back in a fresh interpreter (so the library's lazy caches start cold,
as they do for every script or CLI call a user runs).  Passes repeat as long
as that brings the end of the last one nearer to ``--seconds``; there is
always at least one, measured whole.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and ``setup_s``, the median time
from starting a fresh interpreter until ``import kfree`` is done, over at
least SETUP_SAMPLES interpreters.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones (see
tracing.py); span sidecars go to ``.perfbench/``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
``failed / attempted`` is the failed-job ratio.  The exit status is nonzero,
with no result line, when a pass cannot run at all (for example when the
checkout has no ``src/kfree``).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 150.0  # no pass starts that would be expected to end after this

sys.path.insert(0, str(HERE))
from catalog import COUNTS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


class PassError(RuntimeError):
    pass


def _spawn(args: list, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return its report with ``setup_s`` added."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise PassError(f"worker {args} timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"worker {args} exited with status {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["import_done"] - started
    report["seconds"] = time.monotonic() - started
    return report


def _code_digest() -> str:
    """Hash of the library and benchmark sources, so saved counts belong to this code only."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _counts_repeat(workload: str, traced: list) -> list:
    """Work counts must match across this run's traced passes and earlier runs of the same code."""
    problems = []
    first = {name: traced[0]["layers"][name] for name in COUNTS}
    for i, report in enumerate(traced[1:], start=1):
        for name in COUNTS:
            if report["layers"][name] != first[name]:
                problems.append(f"{name}: pass {i} counted {report['layers'][name]}, pass 0 {first[name]}")
    saved = OUT / f"counts-{workload}-{_code_digest()}.json"
    if saved.exists():
        before = json.loads(saved.read_text())
        problems += [
            f"{name}: {first[name]} now, {before[name]} in an earlier run"
            for name in COUNTS
            if before.get(name) != first[name]
        ]
    else:
        OUT.mkdir(exist_ok=True)
        saved.write_text(json.dumps(first, indent=1, sort_keys=True))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S + 25.0 - (time.monotonic() - run_start)

    try:
        _spawn(["--setup-only"], remaining())  # compiles bytecode; not a sample
        passes = []
        window_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            index = len(passes)
            worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced))]
            if traced:
                sidecar = OUT / f"trace-{args.workload}-seed{args.seed}-pass{index}.json"
                worker_args += ["--sidecar", str(sidecar)]
            report = _spawn(worker_args, remaining())
            report["traced"] = traced
            passes.append(report)
            print(
                f"pass {index} ({'traced' if traced else 'untraced'}): wall {report['wall_s']:.3f} s, "
                f"{report['failed']}/{report['attempted']} failed",
                file=sys.stderr,
            )
            typical = statistics.median(p["seconds"] for p in passes)
            now = time.monotonic()
            enough = len(passes) >= (2 if args.trace else 1)
            # stop at the pass count whose end lies nearest to --seconds
            if enough and (
                now - window_start + typical / 2 > args.seconds or now - run_start + typical > RUN_LIMIT_S
            ):
                break
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES:
            setup.append(_spawn(["--setup-only"], remaining())["setup_s"])
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"{f['job']}: {msg}" for p in passes for f in p["failures"] for msg in f["problems"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        problems += _counts_repeat(args.workload, traced)
        wall = statistics.median(p["wall_s"] for p in traced)
        metrics = {
            "trace.wall_s": wall,
            "trace.overhead_s": wall - statistics.median(p["wall_s"] for p in untraced),
        }
        for name, _, _ in PER_LAYER:
            if name in COUNTS:  # equal in every traced pass, checked above
                metrics[name] = traced[0]["layers"][name]
            elif name not in metrics:
                metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        shares = ", ".join(
            f"{name} {metrics[name] / wall:.1%}"
            for name, unit, _ in PER_LAYER
            if unit == "s" and not name.startswith("trace.") and metrics[name] > 0.01 * wall
        )
        print(f"share of traced wall_s {wall:.3f} s: {shares}", file=sys.stderr)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {name: statistics.median(p[name] for p in untraced) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.3f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
