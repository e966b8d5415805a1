"""Remainder catalogue for the logarithm of the ensemble charfn ratio.

Summing the per-prime log-factor of the ensemble characteristic function by
parts against the prime counting function splits ``log phi_N`` into two
boundary terms plus a finite family of remainder integrals over ``u`` in
``[d*, N]``.  Each remainder integrand is a product of three factors picked
by a structural index triple ``(a, b, c)``:

* ``a`` in ``{1, 2}`` -- which part of the prime count enters
  (``u / log u`` for ``a = 1``, the ``u / log^2 u`` correction for ``a = 2``);
* ``b`` in ``{1, 2, 3}`` -- which term of the expanded reciprocal per-prime
  factor multiplies it (``1``, an oscillatory difference over ``u``, or a
  second-order ``1/u^2`` piece);
* ``c >= 1`` -- which term of the ``u``-derivative of the per-prime
  log-factor closes the product (``c = 1``: the oscillatory difference over
  ``u^2``; ``c = 2``: the term carrying an explicit ``eps`` factor;
  ``3 <= c <= k+1``: higher-power differences; ``c = k+2``: the closing
  ``eps / u^3`` envelope), with ``eps = lam / log N``.

After the substitution ``x = log u`` every integrand becomes an oscillatory
bracket times ``e^{-m x} / x^a``, and eleven of the index triples admit
explicit antiderivatives built from the exponential integral, the upper
incomplete gamma function, and the cosine/sine integrals.  The triple
``(1, 1, 1)`` is not a remainder: it is the leading integral, with an
explicit large-``N`` limit.

Public surface:

* ``main_term_J111`` -- the leading integral;
* ``antiderivative_case`` / ``verify_antiderivative`` -- the closed-form
  catalogue and a finite-difference check that each closed form really
  differentiates to its integrand;
* ``bound_scan`` -- magnitude scans of the bounding integrands (order-one
  prefactors set to 1) with envelope fits in ``1 / log N`` and
  ``eps * |log eps|``;
* ``boundary_terms`` -- the two boundary values of the summation by parts;
* ``limit_deviation_scan`` -- end-to-end deviation of the ensemble charfn
  from its limit, fitted against the same two-feature envelope.

Positive frequencies are assumed throughout (``lam >= 0``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._quad import complex_quad
from .dickman import charfn_limit_grid
from .ensemble import (
    EnsembleConfig,
    charfn_for,
    marginal_row,
    threshold_prime,
)
from .errors import DomainError
from .primes import prime_count
from .specfun import (
    cosine_integral,
    exp_integral_ei,
    sine_integral,
    upper_gamma,
)

__all__ = [
    "AntiderivativeCase",
    "BoundaryTerms",
    "EnvelopeReport",
    "ModelFit",
    "ScanRow",
    "antiderivative_case",
    "antiderivative_names",
    "bound_scan",
    "boundary_terms",
    "limit_deviation_scan",
    "main_term_J111",
    "verify_antiderivative",
]


# ---------------------------------------------------------------------------
# special-function shims (complex values out of the EvalResult wrappers)
# ---------------------------------------------------------------------------


def _g0(z: complex) -> complex:
    return upper_gamma(0, z).value


def _gm1(z: complex) -> complex:
    return upper_gamma(-1, z).value


def _ei(z: complex) -> complex:
    return exp_integral_ei(z).value


# ---------------------------------------------------------------------------
# the closed-form catalogue
# ---------------------------------------------------------------------------
#
# Each closed form below is an antiderivative (in x) of the bounding
# integrand of its index triple, with every order-one prefactor set to 1.
# The constants of integration are immaterial: both uses (the derivative
# check and endpoint differences) are invariant under them, so no attempt is
# made to normalise branch constants of Ei across the half-planes.


def _closed_2_1_1(x: float, eps: float) -> complex:
    # antiderivative of (e^{i eps x} - 1) / x^2
    if eps == 0.0:
        # eps * (i Ci(eps x) - Si(eps x)) -> 0 despite the log singularity
        return 0j
    t = eps * x
    ci = cosine_integral(t).value
    si = sine_integral(t).value
    return 1.0 / x - cmath.exp(1j * eps * x) / x + eps * (1j * ci - si)


def _closed_1_2_1(x: float, eps: float) -> complex:
    # antiderivative of (e^{i eps x} - 1)^2 e^{-x} / x
    return -_g0(x) + 2.0 * _g0((1 - 1j * eps) * x) - _g0((1 - 2j * eps) * x)


def _closed_1_3_1(x: float, eps: float) -> complex:
    # antiderivative of (e^{i eps x} - 1) e^{-2x} / x
    return -_ei(-2.0 * x) - _g0((2 - 1j * eps) * x)


def _closed_2_2_1(x: float, eps: float) -> complex:
    # antiderivative of (e^{i eps x} - 1)^2 e^{-x} / x^2
    c1 = 1 - 1j * eps
    c2 = 1 - 2j * eps
    return -_ei(-x) + 2.0 * c1 * _gm1(c1 * x) - c2 * _gm1(c2 * x) - math.exp(-x) / x


def _closed_2_3_1(x: float, eps: float) -> complex:
    # antiderivative of (e^{i eps x} - 1) e^{-2x} / x^2
    c = 2 - 1j * eps
    return 2.0 * _ei(-2.0 * x) + math.exp(-2.0 * x) / x - c * _gm1(c * x)


def _closed_1_1_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps (j-2) x} - 1) e^{-(j-2)x} / x
    m = j - 2
    return _g0(m * x) - _g0(m * (1 - 1j * eps) * x)


def _closed_1_2_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps x} - 1)(e^{i eps (j-2) x} - 1) e^{-(j-1)x} / x
    a = j - 1
    return (
        -_g0(a * x)
        - _g0(a * (1 - 1j * eps) * x)
        + _g0((a - 1j * eps) * x)
        + _g0((a - (j - 2) * 1j * eps) * x)
    )


def _closed_1_3_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps (j-2) x} - 1) e^{-jx} / x
    return _g0(j * x) - _g0((j - (j - 2) * 1j * eps) * x)


def _closed_2_1_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps (j-2) x} - 1) e^{-(j-2)x} / x^2
    m = j - 2
    c = m * (1 - 1j * eps)
    return (math.exp(-m * x) - cmath.exp(-c * x)) / x + m * _ei(-m * x) - c * _ei(-c * x)


def _closed_2_2_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps x} - 1)(e^{i eps (j-2) x} - 1) e^{-(j-1)x} / x^2
    a = j - 1

    def block(c: complex) -> complex:
        return cmath.exp(-c * x) / x + c * _ei(-c * x)

    return (
        block(a - 1j * eps)
        - block(a * (1 - 1j * eps))
        + block(a - (j - 2) * 1j * eps)
        - block(complex(a))
    )


def _closed_2_3_j(x: float, eps: float, j: int) -> complex:
    # antiderivative of (e^{i eps (j-2) x} - 1) e^{-jx} / x^2
    c = j - (j - 2) * 1j * eps
    return (math.exp(-j * x) - cmath.exp(-c * x)) / x + j * _ei(-j * x) - c * _ei(-c * x)


_FIXED_CLOSED: dict = {
    (2, 1, 1): _closed_2_1_1,
    (1, 2, 1): _closed_1_2_1,
    (1, 3, 1): _closed_1_3_1,
    (2, 2, 1): _closed_2_2_1,
    (2, 3, 1): _closed_2_3_1,
}

_GENERIC_CLOSED: dict = {
    (1, 1): _closed_1_1_j,
    (1, 2): _closed_1_2_j,
    (1, 3): _closed_1_3_j,
    (2, 1): _closed_2_1_j,
    (2, 2): _closed_2_2_j,
    (2, 3): _closed_2_3_j,
}

# Index irregularities in the source catalogue, recorded rather than
# silently corrected; the registry keys strictly by integrand shape.
_CASE_NOTES: dict = {
    (2, 3, 1): (
        "catalogue irregularity: the magnitude display for this term points "
        "at the (2,2,1) antiderivative; the closed form recorded here is the "
        "one whose derivative matches this term's integrand"
    ),
    (2, 2, 1): (
        "catalogue irregularity: the concluding estimate for this term is "
        "elsewhere indexed (1,2,2); the case is keyed by its integrand shape"
    ),
}


def _bounding_integrand(
    a: int, b: int, c: int, eps: float, eps_tail: bool = False
) -> Callable[[float], complex]:
    """x-space bounding integrand for the triple (a, b, c), prefactors 1.

    ``eps_tail`` selects the closing ``eps / u^3`` form for the final
    expansion index ``c = k + 2`` (the generic difference bracket otherwise
    applies for ``c >= 3``).
    """
    if eps_tail:
        u_power = 3
        phase_c: Callable[[float], complex] = lambda x: complex(eps)
    elif c == 1:
        u_power = 2
        phase_c = lambda x: cmath.exp(1j * eps * x) - 1.0
    elif c == 2:
        u_power = 2
        phase_c = lambda x: 1j * eps * cmath.exp(1j * eps * x)
    else:
        u_power = c
        m = c - 2
        phase_c = lambda x: cmath.exp(1j * eps * m * x) - 1.0
    if b == 2:
        phase_b: Callable[[float], complex] = lambda x: cmath.exp(1j * eps * x) - 1.0
    else:
        phase_b = lambda x: 1.0 + 0j
    # u-powers: b contributes u^{-(b-1)}, c contributes u^{-u_power}, and the
    # prime count times du contributes u^{+2}
    decay = (b - 1) + u_power - 2

    def integrand(x: float) -> complex:
        return phase_b(x) * phase_c(x) * math.exp(-decay * x) / x**a

    return integrand


@dataclass(frozen=True)
class AntiderivativeCase:
    """One remainder integrand with its explicit antiderivative.

    ``indices`` is the concrete structural triple; for the six families
    generic in the third index the ``name`` keeps the placeholder ``j`` while
    ``indices[2]`` holds the instantiated value.  ``closed_form`` and
    ``integrand`` are scalar maps x -> complex bound to one ``eps``; the
    prefactor normalisation (order-one constants and alpha set to 1) makes
    them parameter-free beyond ``(indices, eps)``.  ``note`` records
    catalogue irregularities for the affected cases.
    """

    name: str
    indices: tuple
    eps: float
    closed_form: Callable[[float], complex]
    integrand: Callable[[float], complex]
    note: str = ""


def antiderivative_names() -> tuple:
    """The eleven closed-form family names, in catalogue order."""
    return (
        "antideriv-2-1-1",
        "antideriv-1-1-j",
        "antideriv-1-2-j",
        "antideriv-1-3-j",
        "antideriv-1-2-1",
        "antideriv-2-1-j",
        "antideriv-2-2-j",
        "antideriv-2-3-j",
        "antideriv-1-3-1",
        "antideriv-2-2-1",
        "antideriv-2-3-1",
    )


def antiderivative_case(indices: Sequence[int], eps: float) -> AntiderivativeCase:
    """Instantiate the closed-form case for a structural index triple.

    Raises ``KeyError`` for triples without a closed form: ``(1, 1, 1)`` is
    the main term, the ``c = 2`` terms carry an explicit ``eps`` factor and
    are bounded by magnitude scans only, and the closing ``c = k + 2`` form
    has no catalogue entry (``c >= 3`` always selects the generic families
    here).
    """
    try:
        a, b, c = (int(i) for i in indices)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected an index triple, got {indices!r}") from exc
    eps = float(eps)
    if eps < 0.0:
        raise DomainError("eps must be >= 0 (positive frequencies assumed)")
    key = (a, b, c)
    if key in _FIXED_CLOSED:
        fixed = _FIXED_CLOSED[key]
        return AntiderivativeCase(
            name=f"antideriv-{a}-{b}-{c}",
            indices=key,
            eps=eps,
            closed_form=lambda x: fixed(x, eps),
            integrand=_bounding_integrand(a, b, c, eps),
            note=_CASE_NOTES.get(key, ""),
        )
    if c >= 3 and (a, b) in _GENERIC_CLOSED:
        generic = _GENERIC_CLOSED[(a, b)]
        return AntiderivativeCase(
            name=f"antideriv-{a}-{b}-j",
            indices=key,
            eps=eps,
            closed_form=lambda x: generic(x, eps, c),
            integrand=_bounding_integrand(a, b, c, eps),
            note=_CASE_NOTES.get(key, ""),
        )
    if key == (1, 1, 1):
        raise KeyError(
            "(1, 1, 1) is the leading term, not a catalogued remainder; "
            "see main_term_J111"
        )
    if c == 2:
        raise KeyError(
            f"term {key} carries an explicit eps factor and has no "
            "closed-form antiderivative; use bound_scan for its magnitude"
        )
    raise KeyError(f"no closed-form antiderivative for index triple {key}")


def verify_antiderivative(
    case: AntiderivativeCase, x_grid: Iterable[float], step: float = 1e-3
) -> float:
    """Max residual of d/dx (closed form) against the integrand on a grid.

    The derivative is taken by the fourth-order central stencil with spacing
    ``step``; the returned value is the worst absolute difference over the
    grid.
    """
    xs = np.asarray(list(x_grid), dtype=float).ravel()
    if xs.size == 0:
        raise DomainError("x_grid is empty")
    if step <= 0.0:
        raise DomainError("step must be positive")
    if np.any(xs - 2.0 * step <= 0.0):
        raise DomainError("x_grid must stay positive under the stencil offsets")
    f = case.closed_form
    worst = 0.0
    for x in xs:
        x = float(x)
        deriv = (
            f(x - 2.0 * step)
            - 8.0 * f(x - step)
            + 8.0 * f(x + step)
            - f(x + 2.0 * step)
        ) / (12.0 * step)
        worst = max(worst, abs(deriv - case.integrand(x)))
    return float(worst)


# ---------------------------------------------------------------------------
# the leading integral
# ---------------------------------------------------------------------------


def _validate_range(cfg: EnsembleConfig, lam: float, d_star: Optional[int]) -> int:
    if d_star is None:
        d_star = threshold_prime(cfg)
    d_star = int(d_star)
    if d_star <= abs(complex(cfg.alpha)):
        raise DomainError(
            f"d_star = {d_star} must exceed |alpha| = {abs(complex(cfg.alpha)):g}"
        )
    if cfg.N < d_star:
        raise DomainError(f"N = {cfg.N} must be at least d_star = {d_star}")
    if lam < 0.0:
        raise DomainError("negative frequency; the remainder scans assume lam >= 0")
    return d_star


def main_term_J111(
    cfg: EnsembleConfig, lam: float, d_star: Optional[int] = None
) -> complex:
    """alpha * integral over [d*, N] of (e^{i lam log u / log N} - 1)/(u log u) du.

    Evaluated after the substitution v = log u / log N, which turns it into
    ``alpha * integral over [log d*/log N, 1] of (e^{i lam v} - 1)/v dv``,
    by adaptive quadrature.  ``d_star`` defaults to the shared threshold
    prime of the configuration.
    """
    lam = float(lam)
    d_star = _validate_range(cfg, lam, d_star)
    if lam == 0.0:
        return 0j
    v0 = math.log(d_star) / math.log(cfg.N)
    value, _ = complex_quad(
        lambda v: (cmath.exp(1j * lam * v) - 1.0) / v, v0, 1.0, tol=1e-12
    )
    return complex(cfg.alpha) * value


# ---------------------------------------------------------------------------
# boundary terms of the summation by parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTerms:
    """The two boundary values prime-count(u) * log z(u), u in {N, d*}.

    ``z(u)`` is the per-prime charfn factor continued to real ``u``; the
    upper value is O(1/log N) and the lower one O(eps + 1/N^2) as N grows.
    """

    N: int
    lam: float
    d_star: int
    eps: float
    at_N: complex
    at_threshold: complex


def boundary_terms(
    cfg: EnsembleConfig, lam: float, d_star: Optional[int] = None
) -> BoundaryTerms:
    """Evaluate both boundary terms of the summation by parts exactly."""
    lam = float(lam)
    d_star = _validate_range(cfg, lam, d_star)
    log_n = math.log(cfg.N)

    def log_factor(u: float) -> complex:
        row = marginal_row(cfg, u)
        v = math.log(u) / log_n
        z = sum(row[t] * cmath.exp(1j * lam * t * v) for t in range(cfg.k))
        return cmath.log(z)

    return BoundaryTerms(
        N=cfg.N,
        lam=lam,
        d_star=d_star,
        eps=lam / log_n,
        at_N=prime_count(cfg.N) * log_factor(float(cfg.N)),
        at_threshold=prime_count(d_star) * log_factor(float(d_star)),
    )


# ---------------------------------------------------------------------------
# envelope scans and fits
# ---------------------------------------------------------------------------


MODEL_TWO_FEATURE = "inv-log-N + eps-log-eps"
MODEL_EPS = "eps"
MODEL_EPS_LOG = "eps-log-eps"
MODEL_INV_LOG = "inv-log-N"


@dataclass(frozen=True)
class ScanRow:
    """One scanned magnitude at (N, lam), with eps = lam / log N."""

    N: int
    lam: float
    eps: float
    magnitude: float


@dataclass(frozen=True)
class ModelFit:
    """Least-squares envelope fit; residual is relative (L2)."""

    model: str
    coefficients: tuple
    residual: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Scan rows plus the two-feature fit and one-feature alternatives."""

    label: str
    rows: tuple
    fit: ModelFit
    alternatives: tuple
    term: Optional[tuple] = None

    def alternative(self, model: str) -> ModelFit:
        for candidate in self.alternatives:
            if candidate.model == model:
                return candidate
        raise KeyError(f"no fitted model named {model!r}")


def _eps_log_feature(eps: float) -> float:
    return eps * abs(math.log(eps)) if eps > 0.0 else 0.0


def _least_squares(columns: Sequence[np.ndarray], y: np.ndarray):
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    scale = float(np.linalg.norm(y))
    if scale == 0.0:
        return tuple(0.0 for _ in columns), 0.0
    residual = float(np.linalg.norm(y - design @ coef)) / scale
    return tuple(float(c) for c in coef), residual


def _fit_report(rows: Sequence[ScanRow]):
    y = np.array([row.magnitude for row in rows], dtype=float)
    inv_log = np.array([1.0 / math.log(row.N) for row in rows])
    eps_log = np.array([_eps_log_feature(row.eps) for row in rows])
    eps_col = np.array([row.eps for row in rows])
    coef, residual = _least_squares([inv_log, eps_log], y)
    fit = ModelFit(MODEL_TWO_FEATURE, coef, residual)
    alternatives = tuple(
        ModelFit(name, *_least_squares([column], y))
        for name, column in (
            (MODEL_EPS, eps_col),
            (MODEL_EPS_LOG, eps_log),
            (MODEL_INV_LOG, inv_log),
        )
    )
    return fit, alternatives


def bound_scan(
    term: Sequence[int],
    cfgs: Sequence[EnsembleConfig],
    lam_values: Sequence[float],
) -> EnvelopeReport:
    """Scan |integral of the bounding integrand| over a (cfg, lam) grid.

    The order-one prefactors (including alpha) are set to 1, so the scan
    validates the functional form of the envelope, not its constants.  The
    third index is interpreted against each configuration's k: ``c = k + 2``
    selects the closing ``eps / u^3`` form, ``3 <= c <= k + 1`` the generic
    difference bracket.
    """
    try:
        a, b, c = (int(i) for i in term)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected an index triple, got {term!r}") from exc
    if a not in (1, 2) or b not in (1, 2, 3) or c < 1:
        raise DomainError(f"index triple {(a, b, c)} is outside the catalogue")
    if (a, b, c) == (1, 1, 1):
        raise DomainError("(1, 1, 1) is the leading term; see main_term_J111")
    cfgs = tuple(cfgs)
    if not cfgs:
        raise DomainError("empty configuration grid")
    k_values = {cfg.k for cfg in cfgs}
    if len(k_values) != 1:
        raise DomainError("bound_scan requires a single k across the grid")
    k = k_values.pop()
    if c > k + 2:
        raise DomainError(f"expansion index {c} exceeds k + 2 = {k + 2}")
    lam_values = tuple(float(l) for l in lam_values)
    if any(l < 0.0 for l in lam_values):
        raise DomainError("negative frequency; the remainder scans assume lam >= 0")
    rows = []
    for cfg in cfgs:
        d_star = threshold_prime(cfg)
        x0, x1 = math.log(d_star), math.log(cfg.N)
        for lam in lam_values:
            eps = lam / math.log(cfg.N)
            if lam == 0.0 or x1 <= x0:
                magnitude = 0.0
            else:
                integrand = _bounding_integrand(a, b, c, eps, eps_tail=(c == k + 2))
                value, _ = complex_quad(integrand, x0, x1, tol=1e-11)
                magnitude = abs(value)
            rows.append(ScanRow(N=cfg.N, lam=lam, eps=eps, magnitude=magnitude))
    fit, alternatives = _fit_report(rows)
    return EnvelopeReport(
        label=f"term-{a}-{b}-{c}",
        rows=tuple(rows),
        fit=fit,
        alternatives=alternatives,
        term=(a, b, c),
    )


def limit_deviation_scan(
    k: int,
    alpha: complex,
    lam_values: Sequence[float],
    n_values: Sequence[int],
) -> EnvelopeReport:
    """Deviation |phi_N(lam) / phi_limit(lam) - 1| over an (N, lam) grid.

    phi_N comes from :func:`~kfree.ensemble.charfn_for` (exact per-prime
    product up to N = 10^4, bucketed beyond), and the deviations are fitted
    against the standard two-feature envelope C1 / log N + C2 * eps |log eps|.
    """
    lam_values = tuple(float(l) for l in lam_values)
    if any(l < 0.0 for l in lam_values):
        raise DomainError("negative frequency; the remainder scans assume lam >= 0")
    n_values = tuple(sorted(int(n) for n in n_values))
    if not n_values or not lam_values:
        raise DomainError("empty scan grid")
    lam_grid = np.array(lam_values, dtype=float)
    limits = charfn_limit_grid(alpha, lam_grid)
    rows = []
    for n in n_values:
        values = charfn_for(EnsembleConfig(k, alpha, n)).grid(lam_grid)
        for lam, phi, limit in zip(lam_values, values, limits):
            deviation = abs(complex(phi) / complex(limit) - 1.0)
            rows.append(
                ScanRow(N=n, lam=lam, eps=lam / math.log(n), magnitude=deviation)
            )
    fit, alternatives = _fit_report(rows)
    return EnvelopeReport(
        label=f"limit-deviation(k={k}, alpha={complex(alpha):g})",
        rows=tuple(rows),
        fit=fit,
        alternatives=alternatives,
    )
