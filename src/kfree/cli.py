"""Command-line front end: every library computation as a reproducible run.

Subcommands
-----------
``enumerate``     list the ensemble elements for (k, N)
``partition``     normalizing constant of the weighted ensemble
``constant``     large-N extrapolation of the normalized partition constant
``charfn``        ensemble characteristic function at one or many frequencies
``limit-charfn``  its large-N limit
``dickman``       the limiting density family: the delay-equation solution
                  and the weighted density built from it
``sum``           cutoff-weighted sum by the direct, spectral, or asymptotic
                  route
``compare``       direct versus spectral route with a declared tolerance
``regions``       truncation-regime classification over a parameter grid
``example``       the certified lower-bound chain report
``appendix``      remainder-term magnitude scan with envelope fits

Reproducibility
---------------
Every artifact embeds the library version and the fully resolved run
configuration.  Re-running an emitted configuration (see :func:`argv_of`)
reproduces the output byte for byte on the same platform: no timestamps,
dictionary keys sorted, floats written in shortest exact decimal form (a
binary64 value round-trips through at most 17 significant digits).  CSV
cells use an explicit ``%.17g``.  All output is UTF-8.  An artifact
written with ``--output`` records that path, so two artifacts compare
byte for byte only when both were written to the same path.

:func:`build_parser` is the one declaration of the flags: each flag's
destination is the :class:`RunConfig` field it sets, and both the run
configuration and the replay argv are read off the parser.  :func:`run`
builds it once per process and reuses it, since parsing leaves it
unchanged.  The parser also checks every flag value: a malformed number,
comma list or ``--*-grid`` triple exits 2 with the usage line and the
flag's name on stderr.

``--threads`` caps kfree's worker threads and numpy's OpenBLAS pool for
one run only; the cap is lifted when :func:`run` returns.

JSON is the canonical format.  CSV is available for grid-shaped results;
the column layouts are documented in ``--help`` and stable.

Exit codes: 0 success, 2 usage or domain error, 3 tolerance failure, a
non-finite result or route disagreement, 4 size-cap refusal.  No artifact
carries NaN or an infinity, which JSON is written strictly without: such a
value raises :class:`~kfree.errors.NonFiniteError` instead.  The one
exception is ``dickman``'s w(0) = +inf for alpha < 1, the density's exact,
integrable pole, written as ``Infinity`` (``inf`` in CSV).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__, _threads
from ._quad import NODE_CAP
from .certify import reproduce_example
from .dickman import charfn_limit_grid, rho_at, solve_rho, w_density, w_integral
from .ensemble import (
    ENUMERATION_CAP,
    EnsembleConfig,
    charfn_for,
    enumerate_ensemble,
    partition_constant,
    partition_function,
)
from .errors import (
    DegenerateConfigError,
    DomainError,
    NonFiniteError,
    PoleError,
    SizeCapError,
    ToleranceError,
)
from .remainders import bound_scan
from .smoothsum import (
    SpectralSum,
    asymptotic_prediction,
    comparison_tolerance,
    error_region,
    get_cutoff,
    smooth_sum_direct,
    smooth_sum_spectral,
)

__all__ = ["RunConfig", "argv_of", "build_parser", "main", "run"]

_EPILOG = """\
CSV column layouts (stable across versions; JSON is canonical):
  enumerate     element
  charfn        lambda, re, im
  limit-charfn  lambda, re, im
  dickman       u, rho, w
  regions       tau, eta, case
  appendix      N, lambda, term, magnitude   (envelope fit in '#' comments)

Numbers are serialized with up to 17 significant digits, enough to
reproduce every binary64 value exactly.  Output is UTF-8.

Exit codes:
  0  success
  2  usage or domain error (bad flags, parameters outside the domain)
  3  tolerance failure, a result with an infinity or NaN (which no artifact
     carries but dickman's w(0) = inf for alpha < 1), or compare routes
     disagreeing beyond tolerance
  4  size-cap refusal (an enumeration past the element cap, or a grid past
     the node cap: --R, --M, --r, --points)

Environment:
  KFREE_THREADS  fallback for --threads when the flag is absent
"""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI run.

    Every emitted artifact embeds this record; feeding it back through
    :func:`argv_of` reproduces the run.  Each field is the ``dest`` of the
    :func:`build_parser` flag that sets it.  Fields that a subcommand does
    not use stay ``None`` (or at their defaults here).
    """

    command: str
    k: Optional[int] = None
    alpha_re: float = 1.0
    alpha_im: float = 0.0
    N: Optional[int] = None
    N_list: Optional[tuple[int, ...]] = None
    lam_values: Optional[Sequence[float]] = None  # a list when --lambda is repeated
    cutoff: Optional[str] = None
    route: Optional[str] = None
    R_rule: Optional[str] = None
    R: Optional[float] = None
    tau: Optional[float] = None
    tol: Optional[float] = None
    r: Optional[float] = None
    M: Optional[int] = None
    u_max: Optional[float] = None
    step: Optional[float] = None
    points: Optional[int] = None
    delta: Optional[float] = None
    tau_values: Optional[tuple[float, ...]] = None
    eta_values: Optional[tuple[float, ...]] = None
    term: Optional[tuple[int, ...]] = None
    cap: Optional[int] = None
    threads: Optional[int] = None
    output: Optional[str] = None
    format: str = "json"

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)


@dataclass
class _Artifact:
    """Result payload plus the optional CSV rendering of a handler."""

    result: dict
    csv: Optional[tuple[tuple[str, ...], list[tuple]]] = None
    csv_comments: tuple[str, ...] = ()
    status: int = 0
    message: Optional[str] = None
    pole: bool = False  # holds w(0) = +inf, dickman's density pole for alpha < 1: the one allowed infinity


# ---------------------------------------------------------------------------
# Parsing


def _finite(text: str) -> float:
    """``type=`` of every float flag: a number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    """``type=`` of the comma lists: at least one finite number; empty items are skipped."""
    values = tuple(_finite(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    """``type=`` of the integer lists: a :func:`_float_list` of whole numbers, so ``1e4`` is 10000."""
    values = _float_list(text)
    for value in values:
        if value != int(value):
            raise argparse.ArgumentTypeError(f"expected integers, got {value!r}")
    return tuple(int(value) for value in values)


class _Grid(argparse.Action):
    """``--*-grid START STOP COUNT``: stores the evenly spaced values in its list flag's ``dest``.

    :func:`argv_of` skips this action, so a replay gives the values in the list form.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=3, type=_finite, metavar=("START", "STOP", "COUNT"), **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, count = values
        if not math.isfinite(stop - start):
            raise argparse.ArgumentError(self, "needs finite START and STOP whose difference is finite")
        if count != int(count) or int(count) < 2:
            raise argparse.ArgumentError(self, "COUNT must be an integer >= 2")
        if count > NODE_CAP:
            raise argparse.ArgumentError(self, f"COUNT must be at most {NODE_CAP}")
        setattr(namespace, self.dest, tuple(float(x) for x in np.linspace(start, stop, int(count))))


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=_finite, help="real weight exponent base (shorthand for --alpha-re)")
    group.add_argument("--alpha-re", type=_finite, help="real part of the weight exponent base (default 1)")
    parser.add_argument(
        "--alpha-im", type=_finite, default=0.0, help="imaginary part of the weight exponent base (default 0)"
    )


def _add_lambda(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--lambda",
        dest="lam_values",
        type=_finite,
        action="append",
        metavar="LAMBDA",
        help="frequency; repeat the flag for several values",
    )
    group.add_argument(
        "--lambda-grid", dest="lam_values", action=_Grid, help="evenly spaced frequencies START..STOP (COUNT points)"
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write the artifact here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json (canonical) or csv for grid-shaped results",
    )
    parser.add_argument(
        "--threads",
        type=int,
        help="cap kfree's worker threads and numpy's OpenBLAS pool; where that "
        "OpenBLAS is not found the cap is reported on stderr as not applied "
        "(fallback: KFREE_THREADS)",
    )


def _add_truncation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--R-rule",
        choices=("fixed", "logN/loglogN", "power"),
        help="spectral truncation rule; power means R = (log N)^(1 - tau)",
    )
    parser.add_argument("--R", type=_finite, help="radius for --R-rule fixed")
    parser.add_argument("--tau", type=_finite, help="exponent offset for --R-rule power")
    parser.add_argument(
        "--tol",
        type=_finite,
        default=1e-9,
        help="quadrature tolerance for the spectral route (default 1e-9)",
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads ``-1e-1``, ``-1E+2`` and ``-.5e3`` as numbers.

    argparse's own negative-number pattern has no exponent, so it takes such a
    value typed after its flag for an option.  kfree has no option that looks
    like a number, so every match is a value.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kfree",
        description="Smooth sums over k-free integers with bounded prime factors.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"kfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("enumerate", help="list the ensemble elements for (k, N)")
    p.add_argument("--k", type=int, required=True, help="forbidden prime-power exponent")
    p.add_argument("--N", type=int, required=True, help="largest allowed prime factor")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="refuse ensembles larger than this")
    _add_output(p)

    p = sub.add_parser("partition", help="normalizing constant of the weighted ensemble")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_alpha(p)
    _add_output(p)

    p = sub.add_parser("constant", help="large-N extrapolation of the partition constant")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N-list", type=_int_list, help="comma-separated prime bounds for the extrapolation ladder")
    _add_alpha(p)
    _add_output(p)

    p = sub.add_parser("charfn", help="ensemble characteristic function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_alpha(p)
    _add_lambda(p)
    _add_output(p)

    p = sub.add_parser("limit-charfn", help="large-N limit of the characteristic function")
    _add_alpha(p)
    _add_lambda(p)
    _add_output(p)

    p = sub.add_parser("dickman", help="limiting density family on a grid")
    _add_alpha(p)
    p.add_argument("--u-max", type=_finite, default=12.0, help="grid endpoint (default 12)")
    p.add_argument("--step", type=_finite, default=1e-3, help="delay-equation step (default 1e-3)")
    p.add_argument("--points", type=int, default=201, help="rows in the output table (default 201)")
    _add_output(p)

    p = sub.add_parser("sum", help="cutoff-weighted sum over the ensemble")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_alpha(p)
    p.add_argument("--cutoff", default="gaussian", help="cutoff name (see errors for the list)")
    p.add_argument(
        "--route",
        choices=("direct", "spectral", "asymptotic"),
        default="spectral",
        help="evaluation route (default spectral)",
    )
    _add_truncation(p)
    _add_output(p)

    p = sub.add_parser("compare", help="direct vs spectral routes with declared tolerance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_alpha(p)
    p.add_argument("--cutoff", default="gaussian", help="cutoff name")
    _add_truncation(p)
    _add_output(p)

    p = sub.add_parser("regions", help="truncation-regime classification over a grid")
    tg = p.add_mutually_exclusive_group(required=True)
    tg.add_argument("--tau-list", dest="tau_values", type=_float_list, help="comma-separated tau values in (0, 1)")
    tg.add_argument("--tau-grid", dest="tau_values", action=_Grid)
    eg = p.add_mutually_exclusive_group(required=True)
    eg.add_argument("--eta-list", dest="eta_values", type=_float_list, help="comma-separated decay orders > 1")
    eg.add_argument("--eta-grid", dest="eta_values", action=_Grid)
    p.add_argument("--delta", type=_finite, default=0.0, help="decay offset of the weight (default 0)")
    _add_output(p)

    p = sub.add_parser("example", help="certified lower-bound chain report")
    p.add_argument("--r", type=_finite, default=5.0, help="decay rate of the worked example (default 5)")
    p.add_argument("--M", type=int, default=1000, help="midpoint-rule panel count (default 1000)")
    _add_output(p)

    p = sub.add_parser("appendix", help="remainder-term magnitude scan with envelope fits")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--term", type=_int_list, required=True, help="remainder index triple a,b,c (for example 2,1,1)")
    p.add_argument("--N-list", type=_int_list, required=True, help="comma-separated prime bounds for the scan")
    _add_alpha(p)
    _add_lambda(p)
    _add_output(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` reads every argv with: built once, never handed out."""
    return build_parser()


def _resolve_threads(flag_value: Optional[int]) -> Optional[int]:
    if flag_value is None:
        env = os.environ.get("KFREE_THREADS")
        if env is None:
            return None
        try:
            flag_value = int(env)
        except ValueError as exc:
            raise DomainError(f"KFREE_THREADS must be an integer, got {env!r}") from exc
    if flag_value < 1:
        raise DomainError("thread cap must be at least 1")
    return flag_value


def _apply_thread_cap(threads: Optional[int]):
    """Cap kfree's workers and the BLAS pool at ``threads`` for one run.

    Returns the call that lifts the cap, or None when there is no cap or no
    OpenBLAS to apply it to.
    """
    if threads is None:
        return None
    lift = _threads.cap(threads)
    if lift is None:
        msg = "numpy's OpenBLAS was not found, so its pool keeps the size set when numpy loaded"
        print(f"kfree: --threads {threads} not applied: {msg}", file=sys.stderr)
    return lift


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    """Copy each parsed value whose destination is a RunConfig field.

    The parser has checked every flag value; three inputs are settled here:
    the ``--alpha`` alias, the length of ``--term`` and the ``KFREE_THREADS``
    fallback of the thread cap.
    """
    given = vars(ns)
    fields = {
        field.name: given[field.name]
        for field in dataclasses.fields(RunConfig)
        if given.get(field.name) is not None
    }
    if given.get("alpha") is not None:
        fields["alpha_re"] = ns.alpha
    if "term" in fields and len(fields["term"]) != 3:
        raise DomainError("--term expects exactly three comma-separated indices")
    fields["threads"] = _resolve_threads(given.get("threads"))
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# Serialization


def _json_default(obj):
    """``default=`` of :func:`json.dumps` for what json cannot write itself."""
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(doc, pole: bool = False, **options) -> str:
    """Strict JSON through the ``default=`` hook: NaN or an infinity raises NonFiniteError, unless ``pole``."""
    try:
        return json.dumps(doc, sort_keys=True, ensure_ascii=False, default=_json_default, allow_nan=pole, **options)
    except ValueError as exc:
        raise NonFiniteError(f"the result holds an infinity or NaN, which no artifact carries ({exc})") from exc


def _cell(value, pole: bool = False) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not (pole or math.isfinite(value)):
            raise NonFiniteError(f"the result holds {float(value)}, which no artifact carries")
        return format(float(value), ".17g")
    return str(value)


def _render(config: RunConfig, artifact: _Artifact) -> str:
    config_doc = dataclasses.asdict(config)
    if config.format == "csv":
        if artifact.csv is None:
            raise DomainError(f"no CSV layout for subcommand {config.command!r}; use --format json")
        header, rows = artifact.csv
        lines = [
            f"# kfree-version: {__version__}",
            "# run-config: " + _dumps(config_doc),
        ]
        lines.extend(artifact.csv_comments)
        lines.append(",".join(header))
        lines.extend(",".join(_cell(value, artifact.pole) for value in row) for row in rows)
        return "\n".join(lines) + "\n"
    doc = {
        "result": artifact.result,
        "run_config": config_doc,
        "version": __version__,
    }
    return _dumps(doc, artifact.pole, indent=2) + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def argv_of(run_config: Mapping) -> list[str]:
    """Rebuild the argument vector that reproduces an emitted run.

    Accepts the ``run_config`` mapping found in any artifact and returns an
    argv suitable for :func:`run`.  The flags come from :func:`build_parser`:
    every option of the subcommand whose destination holds a value in the
    record is emitted under its first spelling, joined to its value by
    ``=`` so that no value can be read as a flag.  A ``--*-grid`` flag
    shares its list flag's destination and is skipped.
    Floats are rendered with ``repr`` so the replayed run resolves to
    bit-identical parameters; a sequence repeats an append flag and is
    comma-joined otherwise.
    """
    command = run_config["command"]
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    if command not in subparsers.choices:
        raise DomainError(f"unknown command {command!r} in run configuration")

    def _text(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    argv = [command]
    for action in subparsers.choices[command]._actions:
        value = run_config.get(action.dest)
        if value is None or isinstance(action, _Grid):
            continue
        flag = action.option_strings[0]
        if isinstance(value, (list, tuple)) and isinstance(action, argparse._AppendAction):
            argv += [f"{flag}={_text(item)}" for item in value]
        elif isinstance(value, (list, tuple)):
            argv.append(f"{flag}={','.join(_text(item) for item in value)}")
        else:
            argv.append(f"{flag}={_text(value)}")
    return argv


# ---------------------------------------------------------------------------
# Handlers


def _ensemble_config(config: RunConfig) -> EnsembleConfig:
    return EnsembleConfig(config.k, config.alpha, config.N)


def _require_lambdas(config: RunConfig) -> tuple[float, ...]:
    if not config.lam_values:
        raise DomainError(f"{config.command} requires --lambda or --lambda-grid")
    return config.lam_values


def _resolve_radius(config: RunConfig, n_value: int) -> Optional[float]:
    rule = config.R_rule
    if rule is None:
        return config.R
    log_n = math.log(n_value)
    if rule == "fixed":
        if config.R is None:
            raise DomainError("--R-rule fixed requires --R")
        return config.R
    if rule == "logN/loglogN":
        if log_n <= 1.0:
            raise DomainError("--R-rule logN/loglogN requires N >= 3")
        return log_n / math.log(log_n)
    if config.tau is None:
        raise DomainError("--R-rule power requires --tau")
    return log_n ** (1.0 - config.tau)


def _cmd_enumerate(config: RunConfig) -> _Artifact:
    cfg = _ensemble_config(config)
    elements = enumerate_ensemble(cfg, cap=config.cap)
    result = {"count": len(elements), "elements": elements}
    csv = (("element",), [(value,) for value in elements])
    return _Artifact(result=result, csv=csv)


def _cmd_partition(config: RunConfig) -> _Artifact:
    value = partition_function(_ensemble_config(config))
    return _Artifact(result={"value": value})


def _cmd_constant(config: RunConfig) -> _Artifact:
    if config.N_list is None:
        report = partition_constant(config.k, config.alpha)
    else:
        report = partition_constant(config.k, config.alpha, config.N_list)
    return _Artifact(result={"report": report})


def _records(header: tuple[str, ...], rows: list[tuple]) -> list[dict]:
    """The JSON ``rows`` of a CSV table: one object per row, keyed by the header."""
    return [dict(zip(header, row)) for row in rows]


def _charfn_artifact(values, lams) -> _Artifact:
    header = ("lambda", "re", "im")
    rows = [(float(lam), float(value.real), float(value.imag)) for lam, value in zip(lams, values)]
    if len(rows) == 1:
        result = {"lambda": rows[0][0], "value": complex(values[0])}
    else:
        result = {"rows": _records(header, rows)}
    return _Artifact(result=result, csv=(header, rows))


def _cmd_charfn(config: RunConfig) -> _Artifact:
    lams = _require_lambdas(config)
    return _charfn_artifact(charfn_for(_ensemble_config(config)).grid(lams), lams)


def _cmd_limit_charfn(config: RunConfig) -> _Artifact:
    lams = _require_lambdas(config)
    return _charfn_artifact(charfn_limit_grid(config.alpha, lams), lams)


def _cmd_dickman(config: RunConfig) -> _Artifact:
    if config.alpha_im != 0.0:
        raise DomainError("the density family is defined for real weights; drop --alpha-im")
    alpha = config.alpha_re
    if config.points < 2:
        raise DomainError("--points must be at least 2")
    if config.points > NODE_CAP:
        raise SizeCapError(f"--points {config.points} exceeds the {NODE_CAP}-node grid cap")
    grid = solve_rho(alpha, u_max=config.u_max, step=config.step)
    us = np.linspace(0.0, config.u_max, config.points)
    rhos = rho_at(grid, us)
    ws = w_density(grid, us)
    header = ("u", "rho", "w")
    rows = [(float(u), float(rho), float(w)) for u, rho, w in zip(us, rhos, ws)]
    result = {
        "a0": float(grid.a0),
        "rows": _records(header, rows),
        "w_integral": float(w_integral(grid)),
    }
    return _Artifact(result=result, csv=(header, rows), pole=alpha < 1.0)


def _spectral_fields(spectral: SpectralSum, value_key: str) -> dict:
    return {
        "R": float(spectral.R),
        "declared_tolerance": float(spectral.declared_tolerance),
        "panel_width": float(spectral.panel_width),
        "quadrature_error": float(spectral.quadrature_error),
        "rho": float(spectral.rho),
        "tail_bound": float(spectral.tail_bound),
        value_key: spectral.value,
    }


def _cmd_sum(config: RunConfig) -> _Artifact:
    cfg = _ensemble_config(config)
    cutoff = get_cutoff(config.cutoff)
    radius = _resolve_radius(config, cfg.N)
    route = config.route
    if route == "direct":
        result = {"route": route, "value": smooth_sum_direct(cfg, cutoff)}
    elif route == "spectral":
        spectral = smooth_sum_spectral(cfg, cutoff, R=radius, tol=config.tol)
        result = {**_spectral_fields(spectral, "value"), "route": route}
    else:
        report = asymptotic_prediction(cfg, cutoff, R=radius)
        result = {"report": report, "route": route}
    return _Artifact(result=result)


def _cmd_compare(config: RunConfig) -> _Artifact:
    cfg = _ensemble_config(config)
    cutoff = get_cutoff(config.cutoff)
    direct = smooth_sum_direct(cfg, cutoff)
    spectral = smooth_sum_spectral(cfg, cutoff, R=_resolve_radius(config, cfg.N), tol=config.tol)
    difference = abs(direct - spectral.value)
    declared = comparison_tolerance(cfg, direct, spectral)
    rounding = declared - float(spectral.declared_tolerance)
    agree = difference <= declared
    result = {
        **_spectral_fields(spectral, "spectral"),
        "agree": agree,
        "declared_tolerance": declared,
        "difference": float(difference),
        "direct": direct,
        "rounding_allowance": rounding,
    }
    message = None if agree else "routes disagree beyond the declared tolerance"
    return _Artifact(result=result, status=0 if agree else 3, message=message)


def _cmd_regions(config: RunConfig) -> _Artifact:
    rows = [
        (float(tau), float(eta), error_region(tau, eta, config.delta))
        for tau in config.tau_values
        for eta in config.eta_values
    ]
    header = ("tau", "eta", "case")
    return _Artifact(result={"rows": _records(header, rows)}, csv=(header, rows))


def _cmd_example(config: RunConfig) -> _Artifact:
    report = reproduce_example(r=config.r, M=config.M)
    message = None if report.passed else "the certified bound chain did not close"
    return _Artifact(result={"report": report}, status=0 if report.passed else 3, message=message)


def _fit_comment(kind: str, fit) -> str:
    """One CSV comment line for a model fit, every number at 17 significant digits."""
    coefficients = ", ".join(format(c, ".17g") for c in fit.coefficients)
    return f"# {kind}: model={fit.model} coefficients=({coefficients}) residual={fit.residual:.17g}"


def _cmd_appendix(config: RunConfig) -> _Artifact:
    lams = _require_lambdas(config)
    cfgs = [EnsembleConfig(config.k, config.alpha, n) for n in config.N_list]
    report = bound_scan(config.term, cfgs, lams)
    term_text = "-".join(str(i) for i in config.term)
    result = {
        "alternatives": report.alternatives,
        "fit": report.fit,
        "label": report.label,
        "rows": report.rows,
        "term": list(config.term),
    }
    csv_rows = [
        (int(row.N), float(row.lam), term_text, float(row.magnitude)) for row in report.rows
    ]
    comments = [_fit_comment("fit", report.fit)]
    comments += [_fit_comment("alternative", fit) for fit in report.alternatives]
    return _Artifact(
        result=result,
        csv=(("N", "lambda", "term", "magnitude"), csv_rows),
        csv_comments=tuple(comments),
    )


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "partition": _cmd_partition,
    "constant": _cmd_constant,
    "charfn": _cmd_charfn,
    "limit-charfn": _cmd_limit_charfn,
    "dickman": _cmd_dickman,
    "sum": _cmd_sum,
    "compare": _cmd_compare,
    "regions": _cmd_regions,
    "example": _cmd_example,
    "appendix": _cmd_appendix,
}


# ---------------------------------------------------------------------------
# Entry points


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, execute the subcommand, emit the artifact.

    Returns the exit status; see the module docstring for the code map.
    """
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    lift = None
    try:
        config = _config_from_namespace(ns)
        lift = _apply_thread_cap(config.threads)
        artifact = _HANDLERS[config.command](config)
        text = _render(config, artifact)
        _emit(text, config.output)
    except (DomainError, DegenerateConfigError, PoleError, OSError) as exc:
        print(f"kfree: error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"kfree: tolerance failure: {exc}", file=sys.stderr)
        return 3
    except SizeCapError as exc:
        print(f"kfree: size cap: {exc}", file=sys.stderr)
        return 4
    finally:
        if lift is not None:
            lift()
    if artifact.message:
        print(f"kfree: {artifact.message}", file=sys.stderr)
    return artifact.status


def main() -> None:
    sys.exit(run())
