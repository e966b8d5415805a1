"""Reference implementations that only the tests call.

Each is either a quantity the library does not need at run time (the
complex measure of a subset, the exponent marginals, the Laurent partial
sum and coefficients, the cancellation identity, the error kernel, the
trivial characteristic-function bound, the stationary-phase amplitude of the
bump transform, the Corollary 1 rate, the boundary terms of the summation
by parts), an independent route to a library value (the cutoff transform by
adaptive quadrature, the limit of the leading integral and the [0, 1] head
of the density transform by mpmath, Simpson over a density grid, a
finite-difference check of the catalogued antiderivatives), or an earlier
form of a library route kept as the oracle it must match bit for bit (the
recursive ``Factorization`` enumeration and the direct sum over it).
"""

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import mpmath
import numpy as np

from kfree._quad import complex_quad
from kfree.dickman import RhoGrid, _simpson, _w_prefactor, w_density
from kfree.ensemble import (
    ENUMERATION_CAP,
    EnsembleConfig,
    _cis_minus_one,
    _marginal_rows,
    _positive_product,
    partition_function,
)
from kfree.errors import DegenerateConfigError, DomainError, SizeCapError
from kfree.primes import prime_count, sieve_primes
from kfree.remainders import AntiderivativeCase, _validate_range
from kfree.smoothsum import TWO_PI, CutoffDescriptor


@dataclass(frozen=True)
class Factorization:
    """Element of the ensemble: sorted tuple of (prime, exponent >= 1) pairs.

    Primes absent from the tuple carry exponent 0; exponents never reach k.
    """

    exponents: tuple

    def __post_init__(self):
        pairs = tuple(sorted((int(p), int(t)) for p, t in self.exponents if t))
        if any(t < 1 for _, t in pairs):
            raise DomainError("exponents must be >= 1 when stored")
        object.__setattr__(self, "exponents", pairs)

    @property
    def value(self) -> int:
        return math.prod(p**t for p, t in self.exponents)

    @property
    def omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(t for _, t in self.exponents)

    def exponent(self, p: int) -> int:
        for q, t in self.exponents:
            if q == p:
                return t
        return 0

    def xi(self, N: int) -> float:
        """log(value)/log(N), the normalized logarithm in [0, (k-1) pi(N)]."""
        if self.value == 1:
            return 0.0
        return math.log(self.value) / math.log(N)


def _coerce_factorization(cfg: EnsembleConfig, item) -> Factorization:
    if isinstance(item, Factorization):
        return item
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Factorization):
        return item[1]
    n = int(item)
    if n < 1:
        raise DomainError(f"ensemble elements are positive integers, got {n}")
    pairs = []
    rem = n
    for p in sieve_primes(cfg.N).primes:
        p = int(p)
        if p * p > rem:
            break
        t = 0
        while rem % p == 0:
            rem //= p
            t += 1
        if t:
            pairs.append((p, t))
    if rem > 1:
        if rem <= cfg.N:
            pairs.append((rem, 1))
        else:
            raise DomainError(f"{n} has a prime factor > N = {cfg.N}")
    f = Factorization(tuple(pairs))
    if any(t > cfg.k - 1 for _, t in f.exponents):
        raise DomainError(f"{n} is not {cfg.k}-free")
    return f


def measure(cfg: EnsembleConfig, subset: Iterable) -> complex:
    """sum over the subset of alpha^Omega(x)/x, via exact integer arithmetic.

    Elements are grouped by Omega; within a group the sum of 1/x is the exact
    big integer sum of D/x over the common denominator D = prod p^{k-1}, so
    floating point enters only through one correctly rounded division per
    group.  Subset entries may be Factorization objects, (value, Factorization)
    pairs, or plain integers (which are factored and validated).
    """
    facs = [_coerce_factorization(cfg, it) for it in subset]
    if not facs:
        return 0.0 + 0.0j
    D = math.prod(int(p) ** (cfg.k - 1) for p in sieve_primes(cfg.N).primes)
    numerators: dict[int, int] = {}
    for f in facs:
        numerators[f.omega] = numerators.get(f.omega, 0) + D // f.value
    alpha = complex(cfg.alpha)
    total = 0.0 + 0.0j
    for m in sorted(numerators):
        total += alpha**m * (numerators[m] / D)
    return total


def marginal_row(cfg: EnsembleConfig, p: int) -> np.ndarray:
    """All k exponent probabilities for one prime, as a complex vector."""
    return np.array([row[0] for row in _marginal_rows(cfg.k, cfg.alpha, np.array([float(p)]))])


def nu_marginal(cfg: EnsembleConfig, p: int, t: int) -> complex:
    """P(nu(p) = t) under the complex measure: alpha^t p^{k-1-t}(p-alpha)/(p^k-alpha^k)."""
    table = sieve_primes(cfg.N)
    idx = np.searchsorted(table.primes, p)
    if idx >= len(table.primes) or int(table.primes[idx]) != int(p):
        raise DomainError(f"p = {p} is not a prime <= N = {cfg.N}")
    if not 0 <= t <= cfg.k - 1:
        raise DomainError(f"t must lie in [0, {cfg.k - 1}], got {t}")
    return complex(marginal_row(cfg, p)[t])


@dataclass(frozen=True)
class LaurentCoeffs:
    """Coefficients b_t(l) of F_t(u) = sum_l b_t(l) / u^l, l = 0..l_max."""

    k: int
    alpha: complex
    t: int
    coefficients: tuple


def _b0(k: int, alpha: complex, l: int) -> complex:
    """Base-row coefficient: alpha^l when l = 0 mod k, -alpha^l when l = 1 mod k, else 0."""
    if l < 0:
        return 0.0 + 0.0j
    r = l % k
    if r == 0:
        return complex(alpha) ** l
    if r == 1:
        return -(complex(alpha) ** l)
    return 0.0 + 0.0j


def laurent_coeffs(k: int, alpha: complex, t: int, l_max: int) -> LaurentCoeffs:
    """Coefficients of the 1/u expansion of F_t; shift rule b_t(l) = alpha^t * b_0(l-t)."""
    if l_max < k + 2:
        raise DomainError("l_max must be at least k + 2")
    if not 0 <= t <= k - 1:
        raise DomainError(f"t must lie in [0, {k - 1}]")
    alpha = complex(alpha)
    coeffs = tuple(alpha**t * _b0(k, alpha, l - t) for l in range(l_max + 1))
    return LaurentCoeffs(k=k, alpha=alpha, t=t, coefficients=coeffs)


def _marginal_derivative(k: int, alpha: complex, t: int, u: complex) -> complex:
    """d/du of F_t(u) = x^t(1-x)/(1-x^k) with x = alpha/u (exact rational calculus)."""
    x = complex(alpha) / u
    num = x**t - x ** (t + 1)
    dnum = t * x ** (t - 1) - (t + 1) * x**t if t > 0 else -1.0 + 0.0j
    den = 1.0 - x**k
    dF_dx = (dnum * den + num * k * x ** (k - 1)) / den**2
    return complex(dF_dx * (-x / u))


def error_kernel(cfg: EnsembleConfig, u: float, lam: float):
    """Deviation of the factor-derivative from its two leading Laurent terms.

    Returns (value, bound): value is

        d/du F_0(u) - alpha/u^2
        + (d/du F_1(u) + alpha/u^2) e^{i lam log u / log N}
        + sum_{t=2}^{k-1} d/du F_t(u) e^{i lam t log u / log N}

    and bound = sum_{j=1}^{k-1} |alpha^j (e^{i lam j log u / log N} - 1)| / u^{j+2},
    the envelope that controls it (value/bound stays below a fitted constant).
    """
    alpha = complex(cfg.alpha)
    u = float(u)
    if u <= abs(alpha):
        raise DomainError("error_kernel needs u > |alpha| (outside the Laurent disk)")
    v = math.log(u) / cfg.log_n
    k = cfg.k
    value = _marginal_derivative(k, alpha, 0, u) - alpha / u**2
    value += (_marginal_derivative(k, alpha, 1, u) + alpha / u**2) * np.exp(1j * lam * v)
    for t in range(2, k):
        value += _marginal_derivative(k, alpha, t, u) * np.exp(1j * lam * t * v)
    bound = 0.0
    for j in range(1, k):
        bound += abs(alpha) ** j * abs(complex(_cis_minus_one(np.array([lam * j * v]))[0])) / u ** (j + 2)
    return complex(value), float(bound)


def laurent_partial_sum(coeffs: LaurentCoeffs, u: complex) -> complex:
    """sum_l b(l)/u^l, evaluated by Horner from the top coefficient."""
    acc = 0.0 + 0.0j
    for b in reversed(coeffs.coefficients):
        acc = acc / u + b
    return complex(acc)


def cancellation_check(k: int, alpha: complex, l: int) -> complex:
    """sum_{j=0}^{min(l, k-1)} alpha^j * b_0(l-j); identically zero for l >= 2."""
    if l < 2:
        raise DomainError("the cancellation identity needs l >= 2")
    alpha = complex(alpha)
    return complex(sum(alpha**j * _b0(k, alpha, l - j) for j in range(min(l, k - 1) + 1)))


def trivial_charfn_bound(cfg: EnsembleConfig, strip: float = 0.0) -> float:
    """Bound on |phi_N(lambda)| over |Im lambda| <= strip: the positive product over |Z|."""
    z = partition_function(cfg)
    if z == 0:
        raise DegenerateConfigError("partition function vanishes; phi_N undefined")
    return _positive_product(cfg, strip) / abs(z)


def recursive_enumeration(cfg: EnsembleConfig, cap: int = ENUMERATION_CAP):
    """All k^pi(N) elements as (value, Factorization), by recursion over the primes."""
    primes = [int(p) for p in sieve_primes(cfg.N).primes]
    if cfg.k ** len(primes) > cap:
        raise SizeCapError(f"ensemble has {cfg.k}^{len(primes)} elements (> cap {cap})")
    items = []

    def rec(i: int, val: int, pairs: tuple):
        if i == len(primes):
            items.append((val, Factorization(pairs)))
            return
        p = primes[i]
        pv = 1
        for t in range(cfg.k):
            rec(i + 1, val * pv, pairs + ((p, t),) if t else pairs)
            pv *= p

    rec(0, 1, ())
    items.sort(key=lambda vf: vf[0])
    return items


def factorization_direct_sum(cfg: EnsembleConfig, f) -> complex:
    """sum f(xi) alpha^Omega / x over :func:`recursive_enumeration`, ascending x."""
    alpha = complex(cfg.alpha)
    total = 0.0 + 0.0j
    for value, fac in recursive_enumeration(cfg):
        fu = f.evaluate(fac.xi(cfg.N))
        if fu:
            total += fu * alpha**fac.omega / value
    return total


def fourier_transform(f: CutoffDescriptor, lam: float, tol: float = 1e-9) -> complex:
    """fhat(lam) by direct adaptive quadrature of f(u) e^{-i lam u} / 2pi.

    Deliberately ignores the descriptor's own transform so it can serve as an
    independent cross-check of the closed forms and cached grids.  Without a
    support the window is [-L, L] for the first whole L (at most 40) with
    |f(+-L)| <= 1e-6 tol: [-9, 9] for the Gaussian at tol = 1e-9 or 1e-10,
    narrow enough for the 256 panels of :func:`complex_quad` to resolve
    e^{-i lam u} far past lam = 60.
    """
    if f.support is not None:
        lo, hi = f.support
    else:
        decayed = (L for L in range(1, 40) if max(abs(f.evaluate(L)), abs(f.evaluate(-L))) <= 1e-6 * tol)
        hi = float(next(decayed, 40))
        lo = -hi
    lam = float(lam)
    value, _ = complex_quad(
        lambda u: f.evaluate(u) * complex(math.cos(lam * u), -math.sin(lam * u)), lo, hi, tol
    )
    return value / TWO_PI


def main_term_limit(alpha: complex, lam: float) -> complex:
    """The N -> infinity value alpha * integral over (0, 1] of (e^{i lam v}-1)/v dv.

    Equals ``alpha * (-Cin(lam) + i Si(lam))``, Cin(x) = gamma + log x - Ci(x),
    here by mpmath at 30 digits: a route independent of the quadrature in
    ``main_term_J111`` and of the library's special functions.
    """
    lam = float(lam)
    if lam < 0.0:
        raise DomainError("negative frequency; the remainder scans assume lam >= 0")
    if lam == 0.0:
        return 0j
    with mpmath.workdps(30):
        cin = mpmath.euler + mpmath.log(lam) - mpmath.ci(lam)
        value = complex(-cin + 1j * mpmath.si(lam))
    return complex(alpha) * value


def stationary_phase_amplitude(lam: float) -> float:
    """Modulus of the saddle-point form of the bump transform at large lam.

    The oscillatory asymptotic has modulus
    e^{-1/4} / (sqrt(pi) * 2^{1/4}) * lam^{-3/4} * e^{-sqrt(lam)}; the
    phase factor is deliberately dropped (peak-envelope comparisons only).
    """
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError("stationary_phase_amplitude requires lam > 0")
    coeff = math.exp(-0.25) / (math.sqrt(math.pi) * 2.0**0.25)
    return coeff * lam**-0.75 * math.exp(-math.sqrt(lam))


def grid_integral(grid: RhoGrid, samples: np.ndarray) -> float:
    """Composite Simpson integral of node samples over [0, u_max]."""
    return _simpson(np.asarray(samples, dtype=float), grid.step)


def charfn_fourier_from_grid(grid: RhoGrid, lam) -> np.ndarray:
    """int e^{i*lam*u} w_alpha(u) du: mpmath on [0, 1], Simpson beyond.

    Validation route for ``charfn_limit``.  On [0, 1] the density is the
    plateau a0 times the prefactor, so the head is the moment
    int_0^1 u^{alpha-1} e^{i lam u} du, which mpmath's tanh-sinh rule takes
    across the u = 0 endpoint singularity; the tail is Simpson over the grid.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    alpha = grid.alpha
    pref = _w_prefactor(alpha, grid.a0)
    m = int(round(1.0 / grid.step))
    u_tail = grid.u[m:]
    w_tail = w_density(grid, u_tail)
    out = np.empty(lam.shape, dtype=complex)
    for i, l in enumerate(lam):
        moment = complex(mpmath.quad(lambda u: u ** (alpha - 1) * mpmath.expj(l * u), [0, 1]))
        head = pref * grid.a0 * moment
        tail = _simpson(w_tail * np.cos(l * u_tail), grid.step) + 1j * _simpson(
            w_tail * np.sin(l * u_tail), grid.step
        )
        out[i] = head + tail
    return out


@dataclass(frozen=True)
class RateDescriptor:
    """Symbolic convergence rate (log log N)^a / (log N)^b."""

    branch: str
    loglog_exponent: float
    log_exponent: float

    def describe(self) -> str:
        return (
            f"(log log N)^{self.loglog_exponent:g} / (log N)^{self.log_exponent:g}"
        )

    def evaluate(self, N: float) -> float:
        ln = math.log(N)
        return math.log(ln) ** self.loglog_exponent / ln**self.log_exponent


def corollary1_rate(eta: float, delta: float) -> RateDescriptor:
    """Error decay rate for the balanced truncation R = log N / log log N.

    Above ``eta = delta + 2`` the rate saturates at log log N / log N; at or
    below that threshold (but above ``delta``) the truncation term leads and
    the exponents depend on eta.
    """
    if not eta > delta:
        raise DomainError("corollary1_rate requires eta > delta")
    if eta > delta + 2.0:
        return RateDescriptor(branch="loglog-over-log", loglog_exponent=1.0, log_exponent=1.0)
    return RateDescriptor(
        branch="power",
        loglog_exponent=eta - 1.0,
        log_exponent=eta - (delta + 1.0),
    )


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
