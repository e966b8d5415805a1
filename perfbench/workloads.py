"""The benchmark workloads: seeded inputs, the jobs that consume them, and their checks.

The seed draws only the frequency (lambda) lists and the phase of alpha on a
fixed |alpha|.  It never draws k, N, R or the cutoff, so the work a job does,
and every work count the traced run reports, is the same for every seed.
The default seed gives the unperturbed inputs (alpha = 1, -1, 0.5, 1 + 0.5i;
lambda = 0.5, 1, 2, 5), whose outputs are also compared with the values in
``expected.json``.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path
from typing import Callable

import numpy as np

import kfree
import kfree.cli

DEFAULT_SEED = 0
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# fast-versus-exact spot checks: the ROADMAP's frequencies and tolerance at N = 10^6
SPOT_N = 10**6
SPOT_LAMBDAS = (0.5, 3.0, 20.0, 100.0, 300.0)
SPOT_TOL = 1e-10

# frozen criterion-1 values of the certified example chain (r = 5, M = 1000)
EXAMPLE_MIDPOINT_SUM = 0.23821680383626
EXAMPLE_TAIL = 0.20771652138513
EXAMPLE_TOL = 1e-9

# default-seed outputs must match the frozen ones to this much: loose enough for
# reordered sums and for special functions made more accurate (the hand-rolled
# Ci/Si are off by up to 5e-8), far tighter than any real defect
FROZEN_ATOL = 1e-9
FROZEN_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]  # plain output -> list of problems


class Inputs:
    """Seeded draws; the default seed gives the unperturbed values."""

    def __init__(self, seed: int):
        self.default = seed == DEFAULT_SEED
        self._rng = random.Random(seed)

    def alpha(self, base: complex):
        """``base`` rotated by a phase in [-pi/6, pi/6]; |alpha| is kept."""
        if self.default:
            return base
        return complex(base) * cmath.exp(1j * self._rng.uniform(-math.pi / 6, math.pi / 6))

    def lambdas(self, base):
        """Each of ``base`` scaled by a factor in [0.8, 1.25], sorted."""
        if self.default:
            return tuple(base)
        return tuple(sorted(lam * self._rng.uniform(0.8, 1.25) for lam in base))


# ---------------------------------------------------------------------------
# plain (JSON) form of outputs, and the checks on it


def plain(obj):
    """JSON-ready copy of a job output: complex -> [re, im], dataclass -> dict."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(value) for value in obj]
    raise TypeError(f"cannot make {type(obj).__name__} plain")


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)


def _all_finite(obj, what):
    bad = sum(1 for x in _numbers(obj) if not math.isfinite(x))
    return [f"{what}: {bad} non-finite values"] if bad else []


def frozen_mismatches(actual, expected, path="") -> list:
    """Where ``actual`` differs from the frozen output.

    Numbers may differ by FROZEN_ATOL + FROZEN_RTOL * |expected|; keys the
    frozen output lacks are ignored, so outputs may gain fields.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(frozen_mismatches(actual[key], value, f"{path}/{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(frozen_mismatches(a, e, f"{path}/{i}"))
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if expected == actual or abs(actual - expected) <= FROZEN_ATOL + FROZEN_RTOL * abs(expected):
            return []
        return [f"{path}: {actual!r} != frozen {expected!r}"]
    if actual != expected:
        return [f"{path}: {actual!r} != frozen {expected!r}"]
    return []


def spot_check(k: int, alpha) -> list:
    """FastCharfn against the exact per-prime product at SPOT_N, SPOT_LAMBDAS."""
    cfg = kfree.EnsembleConfig(k, alpha, SPOT_N)
    fast = kfree.FastCharfn(cfg).grid(SPOT_LAMBDAS)
    exact = kfree.CharfnEvaluator(cfg).grid(SPOT_LAMBDAS)
    worst = float(np.max(np.abs(fast - exact)))
    if worst <= SPOT_TOL:
        return []
    return [f"fast vs exact (k={k}, alpha={alpha}, N={SPOT_N}): {worst:.3e} > {SPOT_TOL:g}"]


# ---------------------------------------------------------------------------
# library jobs


def _scan_job(alpha) -> Job:
    n_values = (10**6,)

    def check(out):
        problems = _all_finite(out, "ratios")
        if [row[0] for row in out] != list(n_values):
            problems.append(f"scan rows are for N = {[row[0] for row in out]}")
        return problems + spot_check(2, alpha)

    return Job(
        f"theorem1_ratio_scan(2, {alpha}, (1e6,))",
        lambda: kfree.theorem1_ratio_scan(2, alpha, n_values),
        check,
    )


def _deviation_job(k, alpha, lams, n_values) -> Job:
    def check(out):
        problems = _all_finite(out["fit"], "fit")
        rows = out["rows"]
        if len(rows) != len(lams) * len(n_values):
            problems.append(f"{len(rows)} scan rows, expected {len(lams) * len(n_values)}")
        if not all(math.isfinite(r["magnitude"]) and r["magnitude"] >= 0.0 for r in rows):
            problems.append("a deviation is negative or non-finite")
        return problems + spot_check(k, alpha)

    return Job(
        f"limit_deviation_scan({k}, {alpha}, N={n_values})",
        lambda: kfree.limit_deviation_scan(k, alpha, lams, n_values),
        check,
    )


def _check_constant(report) -> list:
    """The extrapolated constant against the independent Euler-product route."""
    value = complex(*report["value"])
    predicted = complex(*report["predicted"])
    if abs(value - predicted) <= 1e-4 * abs(value):
        return []
    return [f"partition constant {value} vs predicted {predicted}"]


def _scan_grid(inputs: Inputs) -> list:
    alpha = inputs.alpha(1.0)
    return [_scan_job(alpha), _scan_job(-alpha)]


def _scan_build(inputs: Inputs) -> list:
    lams = inputs.lambdas((0.5, 1.0, 2.0, 5.0))
    alpha_k2 = inputs.alpha(1.0)
    alpha_k3 = inputs.alpha(1 + 0.5j)
    alpha_constant = inputs.alpha(1.0)
    n_values = (10**5, 10**6, 10**7, 10**8)
    return [
        _deviation_job(2, alpha_k2, lams, (10**4,) + n_values),
        _deviation_job(3, alpha_k3, lams, (10**6, 10**7)),
        Job(
            f"partition_constant(2, {alpha_constant}, N={n_values})",
            lambda: kfree.partition_constant(2, alpha_constant, n_values),
            _check_constant,
        ),
    ]


# ---------------------------------------------------------------------------
# command-line jobs


def _cli_job(argv: list, *checks) -> Job:
    def call():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = kfree.cli.run(argv)
        return {"status": status, "result": json.loads(buffer.getvalue())["result"] if status == 0 else None}

    def check(out):
        if out["status"] != 0:
            return [f"exit status {out['status']}"]
        return [problem for c in checks for problem in c(out["result"])]

    return Job("kfree " + " ".join(argv), call, check)


def _alpha_flags(alpha, default_text=None) -> list:
    """The default seed keeps the literal argv; other seeds pass a complex alpha."""
    if isinstance(alpha, complex):
        return ["--alpha-re", repr(alpha.real), "--alpha-im", repr(alpha.imag)]
    return ["--alpha", default_text] if default_text else []


def _finite(result) -> list:
    return _all_finite(result, "result")


def _agree(result) -> list:
    return [] if result["agree"] is True else ["routes disagree"]


def _check_example(result) -> list:
    report = result["report"]
    problems = []
    for key, frozen in (("midpoint_sum", EXAMPLE_MIDPOINT_SUM), ("tail", EXAMPLE_TAIL)):
        if not abs(report[key] - frozen) <= EXAMPLE_TOL:
            problems.append(f"example {key} {report[key]!r} != {frozen!r}")
    if report["passed"] is not True:
        problems.append("example chain did not pass")
    return problems


def _check_dickman(result) -> list:
    # w(0) is an integrable singularity, written as +inf; the density integrates to 1
    problems = _all_finite([row["rho"] for row in result["rows"]], "rho")
    if not abs(result["w_integral"] - 1.0) <= 1e-5:
        problems.append(f"w_integral {result['w_integral']!r} is not 1")
    return problems


def _check_cli_constant(result) -> list:
    report = result["report"]
    return _check_constant({key: [report[key]["re"], report[key]["im"]] for key in ("value", "predicted")})


def _cli_small(inputs: Inputs) -> list:
    a_k2 = inputs.alpha(1.0)
    a_k3 = inputs.alpha(0.5)
    a_bump = inputs.alpha(-1.0)
    a_constant = inputs.alpha(1.0)
    (lam,) = inputs.lambdas((1.0,))
    return [
        _cli_job(["compare", "--k", "2", *_alpha_flags(a_k2), "--N", "30"], _finite, _agree),
        _cli_job(
            ["compare", "--k", "3", *_alpha_flags(a_k3, "0.5"), "--N", "20", "--cutoff", "gaussian"],
            _finite,
            _agree,
        ),
        _cli_job(
            ["compare", "--k", "2", *_alpha_flags(a_bump, "-1"), "--N", "40", "--cutoff", "bump01"],
            _finite,
            _agree,
        ),
        _cli_job(["example"], _finite, _check_example),
        _cli_job(["dickman", "--alpha", "0.5"], _check_dickman),
        _cli_job(
            ["appendix", "--k", "2", "--term", "2,1,1", "--N-list", "1e3,1e4,1e5"]
            + ["--lambda", "1" if inputs.default else repr(lam)],
            _finite,
        ),
        _cli_job(["constant", "--k", "2", *_alpha_flags(a_constant, "1")], _finite, _check_cli_constant),
    ]


_BUILDERS = {"scan-grid": _scan_grid, "scan-build": _scan_build, "cli-small": _cli_small}


def jobs(workload: str, seed: int) -> list:
    """The workload's jobs for ``seed``, in the order they run."""
    return _BUILDERS[workload](Inputs(seed))


def frozen_outputs(workload: str, seed: int):
    """Job name -> frozen output for the default seed; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED.read_text())[workload]


def check_job(job: Job, out, frozen) -> list:
    """Problems with one job's plain output: its own checks, then the frozen values."""
    problems = job.check(out)
    if frozen is not None:
        problems += frozen_mismatches(out, frozen[job.name])
    return problems
