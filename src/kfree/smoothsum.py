"""Cutoff-weighted sums over the ensemble by three exchangeable routes.

For a cutoff f and ensemble parameters (k, alpha, N) the central quantity is

    S = sum over ensemble elements x of  f(log x / log N) * alpha^Omega(x) / x.

Routes:

* ``smooth_sum_direct``    -- the literal finite sum (enumerable N only);
* ``smooth_sum_spectral``  -- the exact identity S = Z * integral of
  phi_N(lambda) * fhat(lambda) over the frequency line, truncated at |lambda|
  <= R with a reported tail bound;
* ``asymptotic_prediction`` -- the large-N form C * (log N)^alpha * integral
  of the limiting characteristic function against fhat over |lambda| <= R,
  with a unit-constant error rate in the two standard terms.

Fourier convention throughout: fhat(lambda) = (1/2pi) * integral of
f(u) e^{-i lambda u} du, so that f(u) = integral of fhat(lambda) e^{i lambda u}
d lambda with no extra factor.  Indicator cutoffs use closed intervals (the
right endpoint u = 1 is included), matching the direct route's treatment of
elements with log x = log N.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import PanelGrid, gauss_panels, gemm
from ._threads import map_blocks, one_blas_thread
from .dickman import charfn_limit_grid
from .ensemble import (
    EnsembleConfig,
    charfn_for,
    partition_constant,
    partition_function,
    _check_constant_weight,
    _ensemble_integers,
    _exceeds,
    _omega,
    _positive_product,
)
from .errors import DegenerateConfigError, DomainError, ToleranceError
from .primes import prime_count, sieve_primes

__all__ = [
    "CutoffDescriptor",
    "ComparisonReport",
    "SpectralSum",
    "builtin_cutoffs",
    "get_cutoff",
    "smooth_sum_direct",
    "smooth_sum_spectral",
    "asymptotic_prediction",
    "error_region",
    "theorem1_ratio_scan",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# cutoff descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffDescriptor:
    """A cutoff f together with its transform and decay metadata.

    ``transform`` evaluates fhat on a numpy grid or a :class:`PanelGrid` in
    one pass; ``transform_grid`` is the call every route makes.
    ``strip_bound(y)`` bounds |fhat| over |Im lam| <= y for f >= 0 by e^{y max
    |u|} fhat(0), u over the support, or e^{y^2/2} fhat(0) for the Gaussian;
    it is inf where that factor passes the float range.
    ``eta``/``decay_constant`` give the generic envelope |fhat(lam)| <= C /
    (1 + |lam|^eta); ``tail_integral`` maps R to a bound on the integral of
    |fhat| over |lam| > R (both half lines).
    """

    name: str
    evaluate: Callable[[float], float]
    transform: Callable
    eta: float
    decay_constant: float
    support: Optional[tuple]
    tail_integral: Callable[[float], float]
    # (u, f(u) - (f(u+) + f(u-))/2) at each jump discontinuity: Fourier
    # inversion converges to the midpoint there, so ensemble elements that
    # land exactly on a jump need an explicit atom correction (see
    # smooth_sum_spectral).
    jumps: tuple = ()

    def transform_grid(self, lams) -> np.ndarray:
        return self.transform(lams)

    def strip_bound(self, y: float) -> float:
        reach = 0.5 * y if self.support is None else max(map(abs, self.support))
        try:
            grow = math.exp(y * reach)
        except OverflowError:  # e^{y^2/2} passes the float range beyond y ~ 37.7
            return math.inf
        return grow * abs(complex(self.transform(np.zeros(1))[0]))


# -- indicator of [0, 1] ----------------------------------------------------


def _indicator_evaluate(u: float) -> float:
    return 1.0 if 0.0 <= u <= 1.0 else 0.0


def _indicator_transform(lams: np.ndarray) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    # (1/2pi) * (1 - e^{-i lam}) / (i lam) in the removable-singularity form
    # e^{-i lam / 2} * sinc(lam / 2pi) / 2pi, exact at lam = 0.
    return np.exp(-0.5j * lams) * np.sinc(lams / TWO_PI) / TWO_PI


def _indicator_tail(R: float) -> float:
    # The transform decays like 1/(pi*lam) only, so the absolute tail
    # integral diverges; symmetric integration pairs +/-lambda and the
    # oscillatory tail obeys a Dirichlet-test envelope ~ 1/R.  This is a
    # reported envelope (constant 4/pi fitted), not a proof.
    if R <= 0:
        return math.inf
    return 4.0 / (math.pi * R)


# -- smooth bump on [-1, 1] -------------------------------------------------


def _bump_evaluate(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - u * u))


# distinct |m| per block of the bump transform: a 64 x 2000 phase matrix is 2 MB
_BUMP_BLOCK = 64


@lru_cache(maxsize=None)
def _bump_nodes():
    """Cached 100-panel x 20-node Gauss-Legendre grid of the bump profile on [0, 1]."""
    grid = gauss_panels(0.0, 1.0, 100, 20)
    g = np.array([_bump_evaluate(float(xi)) for xi in grid.points])
    return grid.points, grid.weights * g


@one_blas_thread()
def bump_transform(lams) -> np.ndarray:
    """fhat of the bump on a panel grid (or plain nodes) by the cached Gauss rule.

    The profile is even, so fhat(lam) = (1/pi) * integral over [0, 1] of
    e^{-1/(1-u^2)} cos(lam*u) du, taken by the rule of :func:`_bump_nodes`.
    Its 100 panels x 20 nodes resolve cos(lam*u) to machine precision up to
    the largest panel grid, R = 1024: against mpmath the rule is off by at
    most 3.1e-17 absolute at lam in {100, 500, 800, 1024}.

    At lam = m + t, cos(lam x) = Re[e^{i|m|x} e^{ist x}] with s the sign of
    m: one complex GEMM (e^{i|m|x} wg) @ e^{ist x} per block of
    ``_BUMP_BLOCK`` distinct |m| and the distinct s t, the blocks shared
    among the workers of :func:`~kfree._threads.map_blocks`.  The nodes
    +-lam of a symmetric grid read the same entry, so fhat is exactly even.
    """
    grid = PanelGrid.of(lams)
    x, wg = _bump_nodes()
    mags, row = np.unique(np.abs(grid.centres), return_inverse=True)
    shifts, col = np.unique(np.where(grid.centres < 0, -1.0, 1.0)[:, None] * grid.offsets, return_inverse=True)
    vals = np.empty((mags.size, shifts.size))
    phases = PanelGrid(mags, shifts)
    et = phases.offset_phases(x)

    def rows(lo: int, hi: int) -> None:
        em = phases.centre_phases(x, lo, hi)
        em *= wg  # in place: one (block, 2000) array in flight per piece
        vals[lo:hi] = gemm(em, et.T).real

    map_blocks(rows, mags.size, _BUMP_BLOCK)
    return (vals[np.repeat(row, grid.offsets.size), col.ravel()] / math.pi).astype(complex)


def _bump_tail(R: float) -> float:
    # per half line, integral over lam > R of (3/2pi) e^{-sqrt(lam)} lam^{-3/4}
    # = (3/sqrt(pi)) erfc(R^{1/4}); doubled for both half lines.
    R = max(float(R), 1.0)
    return 2.0 * 3.0 / math.sqrt(math.pi) * math.erfc(R**0.25)


# -- bump rescaled to [0, 1] ------------------------------------------------


def _bump01_evaluate(u: float) -> float:
    return _bump_evaluate(2.0 * u - 1.0)


def _bump01_transform(lams) -> np.ndarray:
    g = PanelGrid.of(lams)
    return np.exp(-0.5j * g.points) * 0.5 * bump_transform(PanelGrid(0.5 * g.centres, 0.5 * g.offsets))


def _bump01_tail(R: float) -> float:
    # |fhat01(lam)| = |fhat(lam/2)| / 2, so the tail integral equals the
    # plain bump tail beyond R/2.
    return _bump_tail(0.5 * float(R))


# -- Gaussian control case --------------------------------------------------


def _gauss_evaluate(u: float) -> float:
    return math.exp(-0.5 * u * u)


def _gauss_transform(lams: np.ndarray) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    return (np.exp(-0.5 * lams**2) / math.sqrt(TWO_PI)).astype(complex)


def _gauss_tail(R: float) -> float:
    return float(math.erfc(max(R, 0.0) / math.sqrt(2.0)))


def builtin_cutoffs() -> tuple:
    """The four built-in cutoffs: indicator, bump, shifted bump, Gaussian."""
    indicator = CutoffDescriptor(
        name="indicator",
        evaluate=_indicator_evaluate,
        transform=_indicator_transform,
        # sup over lam of (1 + lam)|fhat| is ~0.42 (attained near lam = pi);
        # 1/2 is a clean upper bound for the S_1 membership envelope
        eta=1.0,
        decay_constant=0.5,
        support=(0.0, 1.0),
        tail_integral=_indicator_tail,
        jumps=((0.0, 0.5), (1.0, 0.5)),
    )
    bump = CutoffDescriptor(
        name="bump",
        evaluate=_bump_evaluate,
        transform=bump_transform,
        eta=10.0,
        decay_constant=2e15,
        support=(-1.0, 1.0),
        tail_integral=_bump_tail,
    )
    bump01 = CutoffDescriptor(
        name="bump01",
        evaluate=_bump01_evaluate,
        transform=_bump01_transform,
        # half-argument decay e^{-sqrt(lam/2)}: sup of (1+lam^10)|fhat| is
        # ~6e17 near lam = 800
        eta=10.0,
        decay_constant=1e18,
        support=(0.0, 1.0),
        tail_integral=_bump01_tail,
    )
    gaussian = CutoffDescriptor(
        name="gaussian",
        evaluate=_gauss_evaluate,
        transform=_gauss_transform,
        eta=10.0,
        decay_constant=300.0,
        support=None,
        tail_integral=_gauss_tail,
    )
    return indicator, bump, bump01, gaussian


@lru_cache(maxsize=1)
def _builtin_map() -> dict:
    return {f.name: f for f in builtin_cutoffs()}


def get_cutoff(name: str) -> CutoffDescriptor:
    try:
        return _builtin_map()[name]
    except KeyError:
        raise DomainError(
            f"unknown cutoff {name!r}; available: {sorted(_builtin_map())}"
        ) from None



# ---------------------------------------------------------------------------
# route 1: direct summation
# ---------------------------------------------------------------------------


def smooth_sum_direct(cfg: EnsembleConfig, f: CutoffDescriptor) -> complex:
    """The literal cutoff-weighted sum over the enumerated ensemble.

    The terms f(xi) alpha^Omega(x) / x are added left to right from 0 in
    ascending order of x.  That fixed order makes the value reproducible, and
    it is the summation the random-walk rounding term of
    :func:`comparison_tolerance` models.
    """
    values, omegas = _ensemble_integers(cfg)
    alpha = complex(cfg.alpha)
    powers = [alpha**m for m in range(max(omegas) + 1)]
    log_n = math.log(cfg.N)
    total = 0.0 + 0.0j
    for value, omega in zip(values, omegas):
        fu = f.evaluate(math.log(value) / log_n if value > 1 else 0.0)
        if fu:
            total += fu * powers[omega] / value
    return total


# ---------------------------------------------------------------------------
# route 2: spectral identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSum:
    """Truncated spectral evaluation with its error budget.

    ``quadrature_error`` bounds |value - Z * (integral over |lam| <= R)|
    save the round-off inside the phi_N and fhat evaluators (see
    :func:`smooth_sum_spectral`).  ``declared_tolerance`` = it + ``tail_bound``
    is the agreement radius guaranteed against the direct route.
    ``panel_width`` is R / n for the n panels per half-line :func:`_panel_rule`
    chose, so ``_symmetric_grid(R, panel_width)`` rebuilds the route's grid,
    and ``rho`` the Bernstein ellipse their Gauss remainder is bounded on.
    """

    value: complex
    R: float
    quadrature_error: float
    tail_bound: float
    panel_width: float
    rho: float

    @property
    def declared_tolerance(self) -> float:
        return self.quadrature_error + self.tail_bound


def comparison_tolerance(cfg: EnsembleConfig, direct: complex, spectral: SpectralSum) -> float:
    """Agreement radius for a direct-vs-spectral route comparison.

    ``declared_tolerance`` budgets the spectral route's truncation and
    quadrature only.  Comparing against the literal sum adds the binary64
    rounding accumulated over its k^pi(N) terms; that part is modeled as a
    random walk over the term count with an 8x safety factor and scaled by
    the magnitudes being compared.
    """
    count = float(cfg.k) ** prime_count(cfg.N)
    rounding = (
        8.0
        * float(np.finfo(float).eps)
        * math.sqrt(count)
        * (1.0 + abs(direct) + abs(spectral.value))
    )
    return float(spectral.declared_tolerance + rounding)


# The unit-width layout: the grid of _limit_integral and the panel rule's
# last resort, whose Gauss remainder is bounded on the ellipse rho = 6, which
# reaches _STRIP ~ 1.46 off the real axis.
_PANEL_WIDTH = 1.0
_PANEL_NODES = 16
_RHO = 6.0
_STRIP = 0.25 * _PANEL_WIDTH * (_RHO - 1.0 / _RHO)

# the strips |Im lam| <= y the panel rule bounds the integrand on, in the order
# tried; the unit layout's own is tried only when y = 3 needs more panels than it
_STRIPS = (3.0, _STRIP)
# share of the target the chosen layout's Gauss remainder may take
_REMAINDER_SHARE = 0.25


def _check_radius(R: float) -> None:
    if not 0 < R < math.inf:
        raise DomainError(f"the frequency cutoff R must be positive and finite, got {R}")


def _half_panels(R: float, width: float) -> int:
    """Panels per half-line of [-R, R] no wider than ``width``; exactly n for ``width`` = R / n."""
    n = max(1, math.ceil(R / width))
    return n - 1 if n > 1 and R / (n - 1) == width else n  # R / (R / n) may round above n


def _symmetric_grid(R: float, width: float = _PANEL_WIDTH) -> PanelGrid:
    _check_radius(R)
    return gauss_panels(-R, R, 2 * _half_panels(R, width), _PANEL_NODES)


def _ellipse(h: float, y: float) -> float:
    """The Bernstein ellipse rho = 2y/h + sqrt((2y/h)^2 + 1) of a width-h panel, reaching y off the real axis."""
    s = 2.0 * y / h
    return s + math.sqrt(s * s + 1.0)


def _gauss_remainder(R: float, rho: float, sup: float) -> float:
    """R (64/15) sup rho^-32 / (rho^2 - 1): the 16-node Gauss remainder over |lam| <= R."""
    return R * 64.0 / 15.0 * sup * rho ** (-2 * _PANEL_NODES) / (rho**2 - 1.0)


def _least_panels(R: float, y: float, sup: float, target: float, cap: int) -> Optional[int]:
    """The fewest panels per half-line, at most ``cap``, whose remainder at strip y is at most target.

    A bisection over n = 1..cap on the bound itself, which falls as n grows however R / n rounds.
    """
    if not (sup < math.inf and target > 0):
        return None
    n = 1 + bisect.bisect_left(
        range(1, cap + 1), True, key=lambda m: _gauss_remainder(R, _ellipse(R / m, y), sup) <= target
    )
    return n if n <= cap else None


def _panel_rule(cfg: EnsembleConfig, f: CutoffDescriptor, R: float, target: float) -> tuple:
    """(h, rho, grid, bound): the fewest Gauss panels whose remainder bound fits the target.

    The integrand Z phi_N fhat is entire.  On n panels of width h = R/n per
    half-line of |lam| <= R, 16 Gauss nodes err by at most R (64/15) M
    rho^-32 / (rho^2 - 1) in all (Trefethen, SIAM Rev. 50, 2008, Thm 4.5),
    where the ellipse rho = 2y/h + sqrt((2y/h)^2 + 1) reaches y off the real
    axis and M = ``_positive_product(cfg, y)`` ``f.strip_bound(y)`` bounds
    the integrand on |Im lam| <= y.  :func:`_least_panels` bisects the bound
    for the least n at which it is at most ``_REMAINDER_SHARE * target`` at
    y = 3, then at the unit strip ``_STRIP``; an n past the unit
    layout's ceil(R), or an M that overflows to inf, leaves its strip out,
    and the unit layout (h = 1, rho = 6) is the last resort.  M costs one
    Euler product per strip tried.
    """
    cap = _half_panels(R, _PANEL_WIDTH)
    for y in _STRIPS:
        with np.errstate(over="ignore"):
            sup = _positive_product(cfg, y) * f.strip_bound(y)
        n = _least_panels(R, y, sup, _REMAINDER_SHARE * target, cap)
        if n is not None:
            rho = _ellipse(R / n, y)
            return R / n, rho, _symmetric_grid(R, R / n), _gauss_remainder(R, rho, sup)
    return _PANEL_WIDTH, _RHO, _symmetric_grid(R), _gauss_remainder(R, _RHO, sup)


def _frequency_integral(values, f: CutoffDescriptor, grid: PanelGrid) -> tuple:
    """(I, A): I = sum w values fhat and A = sum w |values fhat| over the symmetric ``grid``.

    ``values`` maps the :class:`PanelGrid` (which may factor its phases) to a
    characteristic function on it.  I adds each +-lam pair first: the nodes
    of :func:`_symmetric_grid` are exactly antisymmetric and its weights
    exactly symmetric, so where terms(-lam) = conj terms(lam) bit for bit
    (real alpha, even cutoff) every pair, and so I, is exactly real.  A is
    the mass the rounding term of :func:`smooth_sum_spectral` scales.
    """
    fhat = f.transform_grid(grid)  # first: values(grid) then runs faster
    terms = values(grid) * fhat
    half = terms.size // 2
    integral = complex(np.sum(grid.weights[:half] * (terms[:half] + terms[::-1][:half])))
    return integral, float(np.sum(grid.weights * np.abs(terms)))


def _atom_correction(cfg: EnsembleConfig, f: CutoffDescriptor) -> complex:
    """Exact correction for ensemble elements sitting on jumps of f.

    Fourier inversion of a discontinuous cutoff converges to the midpoint
    value at each jump u_j, while the direct sum uses f(u_j) itself.  The
    only candidate element with log x / log N = u_j is x = N^{u_j}, whose
    weighted mass alpha^Omega(x)/x is added back scaled by the convention
    gap f(u_j) - midpoint.
    """
    total = 0.0 + 0.0j
    for u_j, delta in f.jumps:
        x_star = math.exp(u_j * math.log(cfg.N))
        xr = int(round(x_star))
        if xr < 1 or abs(x_star - xr) > 1e-9 * max(xr, 1):
            continue
        omega = _omega(cfg, xr)
        if omega is not None:
            total += delta * (complex(cfg.alpha) ** omega * (1 / xr))
    return total


def smooth_sum_spectral(
    cfg: EnsembleConfig,
    f: CutoffDescriptor,
    R: Optional[float] = None,
    tol: float = 1e-9,
) -> SpectralSum:
    """Z times the truncated frequency integral of phi_N * fhat, phi_N from :func:`charfn_for`.

    When ``R`` is omitted it is doubled from 8 upward until the tail bound
    (the bound Z(k, |alpha|, N) on |Z * phi_N| times the integral of |fhat|
    beyond R) drops below ``tol/2``; failure to reach that within R = 4096 raises
    :class:`ToleranceError` naming R = 4096 and its tail bound and asking
    for an explicit ``R``.  An explicit ``R`` is honored as given and the
    tail bound is only reported.  An R that is not positive and finite, or
    tol <= 0, raises :class:`DomainError` before any Euler product is taken,
    and so does an alpha whose bound Z(k, |alpha|, N) on |Z phi_N| overflows.

    The grid is the one :func:`_panel_rule` picks for the target ``tol``:
    the fewest panels per half-line whose Gauss remainder bound is at most
    tol / 4 on the ellipse reaching 3 (else 1.46) off the real axis, and
    unit width (rho = 6) when no width >= 1 fits either strip.
    ``quadrature_error`` adds three terms from that grid of n nodes: the
    remainder bound R (64/15) M rho^-32 / (rho^2 - 1), M = sup |Z phi_N fhat|
    on the strip the ellipse rho reaches (Trefethen, SIAM Rev. 50, 2008, Thm
    4.5).  With A = |Z| sum w |phi_N fhat|, the evaluator adds
    expm1(``truncation_bound(R)``) A and rounding eps n A: forming the n
    terms and summing them in any order (here each +-lam pair first, then
    numpy's fixed order; see :func:`_frequency_integral`) errs by at most
    (n + 7) eps A / 2 (Higham 2002).

    Discontinuous cutoffs receive the exact boundary-atom correction of
    :func:`_atom_correction` so that the routes share one convention (the
    closed-interval reading of indicator endpoints).
    """
    if not tol > 0:
        raise DomainError(f"the spectral route's tol must be positive, got {tol}")
    if R is not None:
        _check_radius(R)
    z = partition_function(cfg)
    if z == 0:
        raise DegenerateConfigError("partition function vanishes; phi_N undefined")
    z_abs = abs(partition_function(EnsembleConfig(cfg.k, abs(cfg.alpha), cfg.N)))  # bounds |Z phi_N| on the real line
    if not math.isfinite(z_abs):
        raise DomainError(
            f"alpha = {cfg.alpha} is too large for the spectral route at k = {cfg.k}, N = {cfg.N}: the bound "
            f"Z(k, |alpha|, N) on |Z phi_N| overflows binary64"
        )
    if R is None:
        R = 8.0
        while z_abs * f.tail_integral(R) > 0.5 * tol:
            if R >= 4096.0:
                raise ToleranceError(
                    f"tail bound {z_abs * f.tail_integral(R):.2e} still above "
                    f"tol/2 = {0.5 * tol:.2e} at R = {R:.0f}, the largest automatic R; "
                    "the cutoff decays too slowly: pass an explicit R"
                )
            R *= 2.0
    R = float(R)
    tail_bound = float(z_abs * f.tail_integral(R))
    charfn = charfn_for(cfg)
    width, rho, grid, remainder = _panel_rule(cfg, f, R, tol)
    integral, mass = _frequency_integral(charfn.grid, f, grid)
    return SpectralSum(
        value=z * integral + _atom_correction(cfg, f),
        R=R,
        quadrature_error=remainder
        + (math.expm1(charfn.truncation_bound(R)) + math.ulp(1.0) * grid.size) * (abs(z) * mass),
        tail_bound=tail_bound,
        panel_width=width,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# route 3: large-N asymptotic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """All computable routes for one configuration, with the unit-constant error rate."""

    k: int
    alpha: complex
    N: int
    cutoff: str
    R: float
    constant: complex
    direct: Optional[complex]
    spectral: complex
    asymptotic: complex
    epsilon_rate: float
    ratios: dict = field(default_factory=dict)


def _limit_integral(alpha: complex, f: CutoffDescriptor, R: float) -> complex:
    return _frequency_integral(lambda grid: charfn_limit_grid(alpha, grid), f, _symmetric_grid(R))[0]


# The report's direct route is only a side check, so it stops below ENUMERATION_CAP:
# on a 2-core host 2^20 elements (k = 2, N = 71) take 2 s and 113 MB, 2^22 take 12 s and 460 MB.
_DIRECT_CHECK_CAP = 1 << 20


def asymptotic_prediction(
    cfg: EnsembleConfig,
    f: CutoffDescriptor,
    R: Optional[float] = None,
    constant: Optional[complex] = None,
) -> ComparisonReport:
    """Leading-order prediction C*(log N)^alpha * integral over |lam| <= R.

    Preconditions are checked numerically and violations raise errors naming
    the failed inequality.  ``constant`` short-circuits the extrapolation of
    the partition constant (useful when sweeping N at fixed (k, alpha)).
    ``epsilon_rate`` is the standard two-term rate with unit constants,
    log log N / log N plus (log N)^{|alpha| - Re alpha} / R^{eta - 1}; it is
    not a bound, and |spectral / asymptotic - 1| can exceed it.
    """
    alpha = complex(cfg.alpha)
    _check_constant_weight(cfg.k, alpha)
    delta = abs(alpha) - alpha.real
    if not f.eta > delta + 1.0:
        raise DomainError(
            f"precondition failed: eta > |alpha| - Re alpha + 1 "
            f"(eta = {f.eta}, delta = {delta:.3f})"
        )
    log_n = math.log(cfg.N)
    if R is None:
        R = log_n / math.log(log_n)
    R = float(R)
    if not 0 < R <= log_n:
        raise DomainError(f"precondition failed: 0 < R <= log N (R = {R:.3f}, log N = {log_n:.3f})")
    if not log_n**delta / R ** (f.eta - 1.0) <= 1.0:
        raise DomainError(
            "precondition failed: (log N)^(|alpha| - Re alpha) / R^(eta - 1) <= 1"
        )
    if constant is None:
        constant = partition_constant(cfg.k, alpha).value
    constant = complex(constant)
    log_pow = complex(np.exp(alpha * math.log(log_n)))
    asymptotic = constant * log_pow * _limit_integral(alpha, f, R)
    spectral = smooth_sum_spectral(cfg, f)
    ratios = {"spectral_over_asymptotic": spectral.value / asymptotic}
    direct = None
    if not _exceeds(cfg, _DIRECT_CHECK_CAP):
        direct = smooth_sum_direct(cfg, f)
        ratios["direct_over_spectral"] = direct / spectral.value
    epsilon_rate = math.log(log_n) / log_n + log_n**delta / R ** (f.eta - 1.0)
    return ComparisonReport(
        k=cfg.k,
        alpha=alpha,
        N=cfg.N,
        cutoff=f.name,
        R=R,
        constant=constant,
        direct=direct,
        spectral=spectral.value,
        asymptotic=asymptotic,
        epsilon_rate=float(epsilon_rate),
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# error-regime classification
# ---------------------------------------------------------------------------


def error_region(tau: float, eta: float, delta: float = 0.0) -> str:
    """Classify the truncation regime for R = (log N)^(1 - tau).

    Returns ``"a"`` when the log log N / log N term dominates (tau at or
    below the lower hyperbola), ``"b"`` between the two hyperbolas, and
    ``"invalid"`` at or above the upper one, where the truncation term no
    longer vanishes.  ``delta`` is the decay offset |alpha| - Re alpha of
    the intended weight.
    """
    if not eta > 1.0:
        raise DomainError("error_region requires eta > 1")
    if not 0.0 < tau < 1.0:
        raise DomainError("tau must lie in (0, 1)")
    upper = (eta - (delta + 1.0)) / (eta - 1.0)
    lower = max(0.0, (eta - (delta + 2.0)) / (eta - 1.0))
    if tau >= upper:
        return "invalid"
    if tau <= lower:
        return "a"
    return "b"


# ---------------------------------------------------------------------------
# large-N ratio scan
# ---------------------------------------------------------------------------


def theorem1_ratio_scan(
    k: int,
    alpha: complex,
    n_values: Sequence[int],
    f: Optional[CutoffDescriptor] = None,
    R_numerator: float = 360.0,
) -> list:
    """Ratio of the spectral integral to its limiting prediction, per N.

    Returns [(N, R_N, ratio)] where ratio = (integral of phi_N * fhat over
    |lam| <= R_numerator) / (integral of the limiting characteristic
    function * fhat over |lam| <= R_N), R_N = log N / log log N.  The
    partition factor cancels in the ratio, so the scan stays well
    conditioned even where Z itself tends to zero.  phi_N is evaluated by
    :func:`~kfree.ensemble.charfn_for` (bucketed where at least three primes
    lie past max(10^4, the threshold prime), else exact), on the fewest
    panels :func:`_panel_rule` allows for the target 1e-9 on the numerator:
    the rule bounds Z times it, so its target is 1e-9 |Z|.
    """
    if f is None:
        f = get_cutoff("bump")
    R = float(R_numerator)
    _check_radius(R)
    out = []
    sieve_primes(max(map(int, n_values), default=2))  # the largest table first: rungs below 2^24 slice it or its head
    for N in sorted(int(n) for n in n_values):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        grid = _panel_rule(cfg, f, R, 1e-9 * abs(partition_function(cfg)))[2]
        numerator = _frequency_integral(charfn_for(cfg).grid, f, grid)[0]
        log_n = math.log(N)
        R_N = log_n / math.log(log_n)
        denominator = _limit_integral(complex(alpha), f, R_N)
        out.append((N, R_N, numerator / denominator))
    return out
