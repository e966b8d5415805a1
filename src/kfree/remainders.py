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

After the substitution ``x = log u`` every integrand is oscillatory
brackets times ``e^{-m x} / x^a``; multiplied out, a short exponential sum
``sum_r s_r e^{-r x} / x^a`` with rates ``r = m - i f``, ``m >= 0``.  One
rule integrates every term: ``-Gamma(0, r x)`` for ``a = 1``,
``-r Gamma(-1, r x)`` for ``a = 2``, and ``log x`` or ``-1/x`` at
``r = 0``.  Eleven index shapes are catalogued with this antiderivative.
The triple ``(1, 1, 1)`` is not a remainder: it is the leading integral,
``alpha (g(lam) - g(lam v0))`` for the exponent g of the limiting charfn,
with an explicit large-``N`` limit.

Public surface:

* ``main_term_J111`` -- the leading integral;
* ``antiderivative_case`` / ``antiderivative_names`` -- the closed-form
  catalogue;
* ``bound_scan`` -- magnitude scans of the bounding integrands (order-one
  prefactors set to 1) with envelope fits in ``1 / log N`` and
  ``eps * |log eps|``;
* ``limit_deviation_scan`` -- end-to-end deviation of the ensemble charfn
  from its limit, fitted against the same two-feature envelope.

Positive frequencies are assumed throughout (``lam >= 0``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import complex_quad
from .dickman import charfn_limit_grid, limit_exponent
from .ensemble import EnsembleConfig, charfn_for, threshold_prime
from .errors import DomainError
from .primes import sieve_primes
from .specfun import upper_gamma

__all__ = [
    "AntiderivativeCase",
    "EnvelopeReport",
    "ModelFit",
    "ScanRow",
    "antiderivative_case",
    "antiderivative_names",
    "bound_scan",
    "limit_deviation_scan",
    "main_term_J111",
]


# ---------------------------------------------------------------------------
# the catalogue: one exponential sum per index triple, one antiderivative rule
# ---------------------------------------------------------------------------


def _exponential_sum(b: int, c: int, eps: float, eps_tail: bool = False) -> tuple:
    """(m, brackets): the integrand of (a, b, c) is e^{-m x} / x^a times the brackets.

    Each bracket is a tuple of (s, f) pairs standing for sum s e^{i f x};
    multiplied out, the integrand is a sum of terms s e^{-r x} / x^a with
    rates r = m - i f, m >= 0.  ``eps_tail`` selects the closing
    ``eps / u^3`` form for the final expansion index ``c = k + 2``.
    """
    if eps_tail:
        u_power, phase_c = 3, ((eps, 0.0),)
    elif c == 1:
        u_power, phase_c = 2, ((1.0, eps), (-1.0, 0.0))
    elif c == 2:
        u_power, phase_c = 2, ((1j * eps, eps),)
    else:
        u_power, phase_c = c, ((1.0, (c - 2) * eps), (-1.0, 0.0))
    brackets = (((1.0, eps), (-1.0, 0.0)), phase_c) if b == 2 else (phase_c,)
    # u-powers: b contributes u^{-(b-1)}, c contributes u^{-u_power}, and the
    # prime count times du contributes u^{+2}
    return (b - 1) + u_power - 2, brackets


def _bounding_integrand(
    a: int, b: int, c: int, eps: float, eps_tail: bool = False
) -> Callable[[float], complex]:
    """x-space bounding integrand for the triple (a, b, c), prefactors 1.

    The brackets of :func:`_exponential_sum` are multiplied as values, not
    expanded: a second-order bracket is O(eps^2) while its expanded terms
    are O(1).
    """
    m, brackets = _exponential_sum(b, c, eps, eps_tail)

    def integrand(x: float) -> complex:
        phase = 1.0
        for bracket in brackets:
            phase = phase * sum(s * cmath.exp(1j * f * x) for s, f in bracket)
        return phase * math.exp(-m * x) / x**a

    return integrand


def _antiderivative(a: int, m: float, brackets: tuple) -> Callable[[float], complex]:
    """Antiderivative in x of e^{-m x} / x^a times the brackets, by the module's one rule.

    Multiplied out, equal rates merge and zero coefficients drop, so
    ``eps = 0`` gives 0.  Re r >= 0 keeps r x off the branch cut of Gamma,
    so endpoint differences are exact integrals.
    """
    terms: dict = {}  # frequency -> coefficient
    for pairs in itertools.product(*brackets):
        f = sum(f for _, f in pairs)
        terms[f] = terms.get(f, 0.0) + math.prod(s for s, _ in pairs)
    rates = [(complex(m, -f), s) for f, s in terms.items() if s != 0]

    def closed_form(x: float) -> complex:
        total = 0j
        for r, s in rates:
            if r == 0:
                total += s * (math.log(x) if a == 1 else -1.0 / x)
            elif a == 1:
                total -= s * upper_gamma(0, r * x).value
            else:
                total -= s * r * upper_gamma(-1, r * x).value
        return total

    return closed_form


# the eleven shapes in catalogue order; "j" marks a family generic in c >= 3
_CATALOGUE = (
    (2, 1, 1), (1, 1, "j"), (1, 2, "j"), (1, 3, "j"), (1, 2, 1), (2, 1, "j"),
    (2, 2, "j"), (2, 3, "j"), (1, 3, 1), (2, 2, 1), (2, 3, 1),
)

# Index irregularities in the source catalogue, recorded rather than
# silently corrected; the catalogue keys strictly by integrand shape.
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
    return tuple("antideriv-{}-{}-{}".format(*shape) for shape in _CATALOGUE)


def antiderivative_case(indices: Sequence[int], eps: float) -> AntiderivativeCase:
    """Instantiate the closed-form case for a structural index triple.

    The closed form is :func:`_antiderivative` of the triple's exponential
    sum.  For the second-order brackets (``b = 2``) its endpoint differences
    lose about ``eps^2`` of relative accuracy, since the merged terms are
    O(1) while their sum is O(eps^2); quadrature of the integrand does not.

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
    shape = (a, b, "j") if c >= 3 else key
    if shape in _CATALOGUE:
        return AntiderivativeCase(
            name="antideriv-{}-{}-{}".format(*shape),
            indices=key,
            eps=eps,
            closed_form=_antiderivative(a, *_exponential_sum(b, c, eps)),
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

    The substitution v = log u / log N turns it into ``alpha * integral over
    [v0, 1] of (e^{i lam v} - 1)/v dv`` with v0 = log d* / log N, which is
    ``alpha * (g(lam) - g(lam v0))`` for the exponent g = -Cin + i Si of the
    limiting charfn (:func:`~kfree.dickman.limit_exponent`).  It has no eps^2
    loss: it is within 4.2e-16 * max(1, |J|) of mpmath for N <= 10^8, lam <= 1000.
    ``d_star`` defaults to the shared threshold prime of the configuration.
    """
    lam = float(lam)
    d_star = _validate_range(cfg, lam, d_star)
    v0 = math.log(d_star) / math.log(cfg.N)
    g = limit_exponent(np.array([lam, lam * v0]))
    return complex(cfg.alpha) * complex(g[0] - g[1])


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
    difference bracket.  It integrates by quadrature: the closed forms lose
    about eps^2 of relative accuracy on the b = 2 brackets (at (2, 2, 3) and
    eps = 1e-4, 2.8e-6 off an mpmath integral; the quadrature 4e-15 off).
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

    phi_N comes from :func:`~kfree.ensemble.charfn_for` (bucketed where at
    least three primes lie past max(10^4, the threshold prime), else the
    exact per-prime product), and the deviations are fitted against the
    standard two-feature envelope C1 / log N + C2 * eps |log eps|.
    """
    lam_values = tuple(float(l) for l in lam_values)
    if any(l < 0.0 for l in lam_values):
        raise DomainError("negative frequency; the remainder scans assume lam >= 0")
    n_values = tuple(sorted(int(n) for n in n_values))
    if not n_values or not lam_values:
        raise DomainError("empty scan grid")
    lam_grid = np.array(lam_values, dtype=float)
    limits = charfn_limit_grid(alpha, lam_grid)
    sieve_primes(n_values[-1])  # the largest table first: the rungs below 2^24 are slices of it or of its head
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
