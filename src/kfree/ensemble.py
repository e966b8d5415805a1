"""Finite ensembles of k-free smooth integers under the complex prime-power measure.

The ensemble for parameters (k, alpha, N) is the set of integers
x = prod_{p <= N} p^{nu(p)} with every exponent in {0, ..., k-1}; it has
exactly k^pi(N) elements.  Each element carries weight alpha^Omega(x)/x where
Omega(x) = sum nu(p), and the total weight is the finite Euler product

    Z(k, alpha, N) = prod_{p <= N} (1 + alpha/p + ... + (alpha/p)^{k-1}).

This module provides:

* exact enumeration with big-integer values (desk scale, size-capped);
* the complex measure of subsets via exact integer arithmetic grouped by
  Omega (one correctly rounded float division per Omega class);
* one Euler-product kernel: every factor 1 + w enters through its
  principal log, summed over all primes and exponentiated once, which
  equals the direct product (a vanishing factor gives exactly 0);
* Richardson-style extrapolation of Z_N/(log N)^alpha toward its constant;
* per-prime exponent marginals F_t(p), their Laurent coefficients at
  u = infinity, the exact cancellation identity behind the error kernel,
  and the error kernel itself with its envelope bound;
* the finite-N characteristic function of xi(x) = log x / log N, both as an
  exact prime product and as a bucketed fast evaluator for dense frequency
  grids at large N, with one rule (:func:`charfn_for`) choosing between them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateConfigError, DomainError, SizeCapError
from .primes import PrimeTable, sieve_primes
from .specfun import exp_integral_e1

__all__ = [
    "EnsembleConfig",
    "Factorization",
    "LaurentCoeffs",
    "PartitionConstantReport",
    "enumerate_ensemble",
    "measure",
    "partition_function",
    "partition_constant",
    "forbidden_alphas",
    "nu_marginal",
    "marginal_row",
    "laurent_coeffs",
    "laurent_partial_sum",
    "cancellation_check",
    "threshold_prime",
    "ensemble_charfn",
    "trivial_charfn_bound",
    "CharfnEvaluator",
    "FastCharfn",
    "charfn_for",
    "error_kernel",
]

ENUMERATION_CAP = 1 << 26

# Meissel-Mertens constant: lim (sum_{p<=N} 1/p - log log N)
MERTENS = 0.2614972128476427837554268386


# ---------------------------------------------------------------------------
# configuration and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters (k, alpha, N): exponents < k, weight base alpha, primes <= N."""

    k: int
    alpha: complex
    N: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 2:
            raise DomainError(f"k must be an integer >= 2, got {self.k}")
        if int(self.N) != self.N or self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N}")
        if complex(self.alpha) == 0:
            raise DomainError("alpha must be nonzero")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def log_n(self) -> float:
        return math.log(self.N)


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
        v = 1
        for p, t in self.exponents:
            v *= p**t
        return v

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
        """log(value)/log(N), the normalized logarithm in [0, pi(N)]."""
        if self.value == 1:
            return 0.0
        return math.log(self.value) / math.log(N)


def enumerate_ensemble(cfg: EnsembleConfig, cap: int = ENUMERATION_CAP):
    """All k^pi(N) elements as a list of (value, Factorization), sorted by value."""
    table = sieve_primes(cfg.N)
    primes = [int(p) for p in table.primes]
    count = cfg.k ** len(primes)
    if count > cap:
        raise SizeCapError(
            f"ensemble has {cfg.k}^{len(primes)} elements (> cap {cap}); "
            "use the product/spectral paths instead of enumeration"
        )
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
        if p * p > rem and rem > 1:
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
    D = 1
    for p in sieve_primes(cfg.N).primes:
        D *= int(p) ** (cfg.k - 1)
    numerators: dict[int, int] = {}
    for f in facs:
        numerators[f.omega] = numerators.get(f.omega, 0) + D // f.value
    alpha = complex(cfg.alpha)
    total = 0.0 + 0.0j
    for m in sorted(numerators):
        total += alpha**m * (numerators[m] / D)
    return total


# ---------------------------------------------------------------------------
# marginals and threshold prime
# ---------------------------------------------------------------------------


def _marginal_rows(k: int, alpha: complex, p: np.ndarray) -> list[np.ndarray]:
    """[F_0(p), ..., F_{k-1}(p)] as arrays over the prime array p.

    F_t(p) = x^t (1-x) / (1-x^k) with x = alpha/p; the pole x^k = 1 is the
    degenerate configuration (alpha on a forbidden ray through a prime).
    """
    x = complex(alpha) / p.astype(float)
    denom = 1.0 - x ** k
    if np.any(np.abs(denom) < 1e-12):
        raise DegenerateConfigError(
            "alpha^k equals p^k for a prime p in range: exponent marginals have a pole"
        )
    base = (1.0 - x) / denom
    rows = []
    xt = np.ones_like(x)
    for _ in range(k):
        rows.append(xt * base)
        xt = xt * x
    return rows


def _envelope(rows: list[np.ndarray]) -> np.ndarray:
    """2 * sum_{t>=1} |F_t(p)|, a lambda-independent bound on |z_p(lambda) - 1|."""
    return 2.0 * np.sum(np.abs(np.stack(rows[1:])), axis=0)


def _order5_remainder(rows: list[np.ndarray]) -> np.ndarray:
    """Per prime, E^5 / (5 (1 - E)) with E = _envelope(rows): where E < 1/2 it bounds
    the remainder of log(1 + w) after its series through w^4."""
    env = _envelope(rows)
    return env**5 / (5.0 * (1.0 - np.minimum(env, 0.5)))


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


def threshold_prime(cfg: EnsembleConfig) -> int:
    """Smallest prime d* with every later factor inside |z - 1| < 1/2, d* > |alpha|.

    The lambda-independent envelope |z(p) - 1| <= 2 * sum_{t>=1} |F_t(p)| is
    evaluated over the primes p <= 8|alpha|; d* is the last prime violating
    the disk condition (or the first prime if none does), pushed above |alpha|.

    No later prime can violate it.  With x = alpha/p and r = |x| < 1/8,
    |F_t(p)| = r^t |1 - x| / |1 - x^k| <= r^t (1 + r) / (1 - r^2) for k >= 2,
    so 2 * sum_{t>=1} |F_t(p)| <= 2 * (r / (1 - r)) * (1 + r) / (1 - r^2)
    < 2 * (1/7) * (9/8) * (64/63) < 0.33 < 1/2.  The pole x^k = 1 needs
    p = |alpha|, so the same scan also meets every degenerate prime.
    """
    primes = sieve_primes(cfg.N).primes
    a = abs(complex(cfg.alpha))
    # integer keys: a float key would make searchsorted copy the table to float
    p = primes[: int(np.searchsorted(primes, math.floor(8.0 * a), side="right"))].astype(float)
    rows = _marginal_rows(cfg.k, cfg.alpha, p)
    bad = np.nonzero(_envelope(rows) >= 0.5)[0]
    d_star = int(primes[bad[-1]]) if bad.size else int(primes[0])
    if d_star <= a:
        # the first prime above |alpha|, or the last prime if none is
        d_star = int(primes[min(int(np.searchsorted(primes, math.floor(a), side="right")), len(primes) - 1)])
    return d_star


# ---------------------------------------------------------------------------
# partition function and its constant
# ---------------------------------------------------------------------------


def _clog1p(w: np.ndarray) -> np.ndarray:
    """Principal log(1 + w) over a 1-d complex array, accurate for small |w|.

    For |w| >= 1/2 the real part is log|1 + w|, accurate as 1 + w nears 0.
    """
    w = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        re = 0.5 * np.log1p(2.0 * w.real + w.real**2 + w.imag**2)
    far = np.flatnonzero(np.abs(w) >= 0.5)
    re[far] = np.log(np.abs(1.0 + w[far]))
    im = np.arctan2(w.imag, 1.0 + w.real)
    return re + 1j * im


def _factor_offset(k: int, x: np.ndarray) -> np.ndarray:
    """w = x + x^2 + ... + x^{k-1}, so that the Euler factor is 1 + w."""
    w = np.zeros_like(x)
    xt = np.ones_like(x)
    for _ in range(k - 1):
        xt = xt * x
        w = w + xt
    return w


# primes per chunk of the Euler-product sums (partition_function and the exact
# evaluator), so memory stays bounded at any N; at N = 10^7 and 10^8 this ran
# as fast as or faster than 2^20 primes per chunk or one full-length pass
_CHUNK = 1 << 14


def _log_euler(w: np.ndarray) -> complex:
    """sum of Log(1 + w), whose exp is the product of the factors 1 + w.

    A vanishing factor adds -inf, so the product is exactly 0.
    """
    with np.errstate(divide="ignore"):
        return complex(np.sum(_clog1p(w)))


def partition_function(cfg: EnsembleConfig) -> complex:
    """Finite Euler product prod_{p<=N} (1 + alpha/p + ... + (alpha/p)^{k-1}).

    The principal logs of the factors are summed over ``_CHUNK``-prime slices
    and exponentiated once; a vanishing factor makes Z exactly 0.  It never
    needs the exponent marginals (which pole on the forbidden rays where Z
    itself is simply 0).
    """
    primes = sieve_primes(cfg.N).primes
    log_z = 0j
    for start in range(0, len(primes), _CHUNK):
        p = primes[start : start + _CHUNK].astype(float)
        log_z += _log_euler(_factor_offset(cfg.k, cfg.alpha / p))
    z = complex(np.exp(log_z))
    # real alpha: negative factors add pi to the log; keep Z exactly real
    return complex(z.real) if cfg.alpha.imag == 0 else z


def forbidden_alphas(k: int, prime_limit: int) -> list[complex]:
    """All p * e^{2*pi*i*l/k} with p prime <= prime_limit and 1 <= l <= k-1.

    These are the alpha values where some partition-function factor vanishes.
    For even k the list contains the negated primes.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    out = []
    for p in sieve_primes(prime_limit).primes:
        for l in range(1, k):
            out.append(int(p) * np.exp(2j * np.pi * l / k))
    return [complex(z) for z in out]


@dataclass(frozen=True)
class PartitionConstantReport:
    """Extrapolation of Z_N / (log N)^alpha toward its N -> infinity constant."""

    k: int
    alpha: complex
    n_values: tuple
    ratios: tuple
    value: complex
    est_error: float
    predicted: complex
    candidates: dict = field(default_factory=dict)
    supported: str = ""


def _log_power(alpha: complex, N: int) -> complex:
    """(log N)^alpha defined as exp(alpha * log log N) for N >= 3."""
    if N < 3:
        raise DomainError("N must be >= 3 for (log N)^alpha")
    return complex(np.exp(complex(alpha) * math.log(math.log(N))))


def _neville_at_zero(x: np.ndarray, y: np.ndarray):
    """Adaptive Richardson/Neville extrapolation of (x_i, y_i) to x = 0.

    Builds the full tableau but returns the entry whose change from the
    previous column is smallest (with the raw last value and its last
    difference as the order-0 candidate).  High-order columns amplify noise
    when the data converge faster than any fixed power of x, so blindly
    taking the top corner can be far worse than the raw sequence.
    """
    x = list(map(float, x))
    col = list(map(complex, y))
    n = len(col)
    best = col[-1]
    best_err = abs(col[-1] - col[-2]) if n >= 2 else float("inf")
    for m in range(1, n):
        new = []
        for i in range(n - m):
            new.append((col[i + 1] * x[i] - col[i] * x[i + m]) / (x[i] - x[i + m]))
        change = abs(new[-1] - col[-1])
        if change < best_err:
            best, best_err = new[-1], change
        col = new
    return best, best_err


def _predicted_constant(k: int, alpha: complex, prime_limit: int = 10**7) -> complex:
    """Independent route to the constant: exp(alpha*M + sum_p [log z_p - alpha/p]).

    Convergent because log z_p - alpha/p = O(p^-2); the sum runs over primes
    up to prime_limit with a p^-j tail correction (j = 2..4) based on
    sum_{p>P} p^-j ~ E1((j-1) log P).  The sum runs over ``_CHUNK``-prime
    slices, as in :func:`partition_function`.
    """
    primes = sieve_primes(prime_limit).primes
    series_sum = 0j
    for start in range(0, len(primes), _CHUNK):
        x = complex(alpha) / primes[start : start + _CHUNK].astype(float)
        series_sum += _log_euler(_factor_offset(k, x)) - complex(np.sum(x))
    a = math.log(prime_limit)
    tail = 0.0 + 0.0j
    for j in range(2, 5):
        c = 1.0 / j - (k / j if j % k == 0 else 0.0)
        if c:
            s_j = exp_integral_e1((j - 1) * a).value.real
            tail += c * complex(alpha) ** j * s_j
    return complex(np.exp(complex(alpha) * MERTENS + series_sum + tail))


def partition_constant(
    k: int,
    alpha: complex,
    n_values: Sequence[int] = (10**4, 10**5, 10**6, 10**7),
) -> PartitionConstantReport:
    """Estimate the constant in Z_N ~ C * (log N)^alpha by extrapolation in 1/log N.

    Reports the ratio sequence, its polynomial extrapolation to 1/log N = 0,
    and an independent prediction from the convergent Euler-product route.
    For (k, alpha) = (2, 1) the report also measures the distance to the two
    candidate closed forms discussed in the literature and flags the nearer
    one; neither is hard-coded as ground truth.
    """
    alpha = complex(alpha)
    for z in forbidden_alphas(k, max(3, int(abs(alpha)) + 1)):
        if abs(alpha - z) < 1e-12:
            raise DegenerateConfigError(f"alpha = {alpha} lies in the forbidden set")
    if abs(alpha) >= 2:
        raise DomainError("partition_constant requires |alpha| < 2")
    n_values = tuple(sorted(int(n) for n in n_values))
    if len(n_values) < 3:
        raise DomainError("need at least 3 N values to extrapolate")
    ratios = []
    for n in n_values:
        z = partition_function(EnsembleConfig(k=k, alpha=alpha, N=n))
        ratios.append(z / _log_power(alpha, n))
    x = np.array([1.0 / math.log(n) for n in n_values])
    value, est_error = _neville_at_zero(x, np.array(ratios))
    predicted = _predicted_constant(k, alpha)
    candidates = {}
    supported = ""
    if k == 2 and alpha == 1:
        gamma = 0.5772156649015328606
        candidates = {
            "exp(-gamma)": abs(value - math.exp(-gamma)),
            "6*exp(gamma)/pi^2": abs(value - 6.0 * math.exp(gamma) / math.pi**2),
        }
        supported = min(candidates, key=candidates.get)
    return PartitionConstantReport(
        k=k,
        alpha=alpha,
        n_values=n_values,
        ratios=tuple(map(complex, ratios)),
        value=value,
        est_error=float(est_error),
        predicted=predicted,
        candidates=candidates,
        supported=supported,
    )


# ---------------------------------------------------------------------------
# Laurent structure of the marginals at u = infinity
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# finite-N characteristic function
# ---------------------------------------------------------------------------


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^{i*theta} from one cos and one sin pass written into a complex array."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _cis_minus_one(theta: np.ndarray) -> np.ndarray:
    """e^{i*theta} - 1 without cancellation: -2 sin^2(theta/2) + i sin(theta)."""
    half = np.sin(0.5 * theta)
    return -2.0 * half * half + 1j * np.sin(theta)


class CharfnEvaluator:
    """Exact prime-product evaluator of the finite-N characteristic function.

    phi_N(lambda) = prod_{p<=N} sum_t F_t(p) e^{i lambda t log p / log N}.
    Each factor is 1 + w with w = sum_t F_t(p) (e^{i lambda t v_p} - 1), and
    every prime goes through the Euler-product kernel: the principal logs of
    the factors are summed, chunk by chunk, and exponentiated once.
    """

    def __init__(self, cfg: EnsembleConfig):
        self.cfg = cfg
        self.table = sieve_primes(cfg.N)
        self.log_n = math.log(cfg.N)

    def grid(self, lams) -> np.ndarray:
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        k = self.cfg.k
        out_log = np.zeros(lams.shape, dtype=complex)
        primes = self.table.primes
        for start in range(0, len(primes), _CHUNK):
            p = primes[start : start + _CHUNK].astype(float)
            v = np.log(p) / self.log_n
            rows = _marginal_rows(k, self.cfg.alpha, p)
            for i, lam in enumerate(lams):
                if lam == 0.0:
                    continue
                w = np.zeros(p.shape, dtype=complex)
                for t in range(1, k):
                    w += rows[t] * _cis_minus_one(lam * t * v)
                out_log[i] += _log_euler(w)
        out = np.exp(out_log)
        out[lams == 0.0] = 1.0
        return out

    def __call__(self, lam: float) -> complex:
        return complex(self.grid([float(lam)])[0])


def ensemble_charfn(cfg: EnsembleConfig, lam: float) -> complex:
    """Convenience single-frequency evaluation (builds a fresh evaluator)."""
    return CharfnEvaluator(cfg)(lam)


def trivial_charfn_bound(cfg: EnsembleConfig) -> float:
    """|phi_N| <= Z(k, |alpha|, N) / |Z(k, alpha, N)| uniformly in lambda."""
    z_abs = partition_function(EnsembleConfig(k=cfg.k, alpha=abs(cfg.alpha), N=cfg.N))
    z = partition_function(cfg)
    if z == 0:
        raise DegenerateConfigError("partition function vanishes; bound undefined")
    return float(abs(z_abs) / abs(z))


# FastCharfn's default head cutoff, the floor of its fine buckets (the direct
# head is smaller); at or below it there are no tail primes
_FAST_HEAD_LIMIT = 10**4

# tail primes per chunk of the FastCharfn build: the chunk's marginal rows,
# coefficients and moment products stay cache-resident (2^20 ran 2.5x slower)
_BUILD_CHUNK = 1 << 14


@functools.lru_cache(maxsize=None)
def _log_series_matrix(k: int) -> tuple[np.ndarray, tuple]:
    """Constant B and monomial steps with c_d = sum_i B[d, i] * m_i(F_1, ..., F_{k-1}).

    c_d is the X^d coefficient of log(1 + w) through order 4 in w, where
    w(X) = sum_{t=1}^{k-1} F_t (X^t - 1).  The monomials m_i run over total
    degree 1 to 4, graded; step i is (j, t) with m_i = m_j * F_t (m_{-1} = 1).
    A monomial of degree g enters only through w^g, so B[d, i] is
    (-1)^{g+1}/g times an integer.
    """
    # polynomials as {(power of X, sorted indices t of the F_t factors): coefficient}
    w = {}
    for t in range(1, k):
        w[(t, (t,))] = 1.0
        w[(0, (t,))] = -1.0
    monomials = [
        comb for g in range(1, 5) for comb in itertools.combinations_with_replacement(range(1, k), g)
    ]
    column = {comb: i for i, comb in enumerate(monomials)}
    steps = tuple((column.get(comb[:-1], -1), comb[-1]) for comb in monomials)
    B = np.zeros((4 * (k - 1) + 1, len(monomials)))
    power = {(0, ()): 1.0}
    for g in range(1, 5):
        product = {}
        for (d1, c1), a in power.items():
            for (d2, c2), b in w.items():
                key = (d1 + d2, tuple(sorted(c1 + c2)))
                product[key] = product.get(key, 0.0) + a * b
        power = product
        for (d, comb), coef in power.items():
            B[d, column[comb]] += (-1) ** (g + 1) * coef / g
    B.setflags(write=False)
    return B, steps


def _log_series_coeffs(k: int, rows: list[np.ndarray]) -> np.ndarray:
    """(4(k-1) + 1, n) array of the c_d(p) of log z_p = sum_d c_d X^d + O(w^5).

    ``rows`` are the marginal rows [F_0, ..., F_{k-1}] over n primes.
    """
    B, steps = _log_series_matrix(k)
    mono = np.empty((len(steps), rows[0].size), dtype=complex)
    for i, (parent, t) in enumerate(steps):
        np.multiply(mono[parent] if parent >= 0 else 1.0, rows[t], out=mono[i])
    return (B @ mono.view(float)).view(complex)  # B is real: one real GEMM


# terms J of the cell expansion; at the widest cell offset x = 1 its
# remainder r_J(1) <= e / J! is 4.2e-16 (of sum |M|, see truncation_bound)
_CELL_TERMS = 18

# order-5 log remainder allowed to the mid primes, which FastCharfn expands
# instead of multiplying: a tenth of its ~1e-13 round-off floor
_MID_BUDGET = 1e-14


class FastCharfn:
    """Bucketed evaluator of phi_N for dense frequency grids at large N.

    The primes fall into three groups.  The direct head, every prime up to
    a cutoff P (318 primes, P = 2111, at k = 2, alpha = 1), is multiplied
    factor by factor.  Past P, log z_p(lambda) is expanded as a polynomial
    sum_d c_d(p) X^d in X = e^{i lambda v_p} (v_p = log p / log N) using
    log(1+w) through order 4 in w.  The mid primes, P < p <= head cutoff,
    are the longest run whose order-5 log remainder stays within
    ``_MID_BUDGET``, with P >= ``threshold_prime``.  The tail primes
    past the head cutoff (10^4 by default) go to ``buckets`` equal-width
    fine buckets in v; the build stores the moments M[d, j, b] =
    sum_p c_d(p) (v_p - vbar_b)^j, j <= 3, of a third-order expansion of
    e^{i lambda d v} about each bucket mean.  Each ``grid`` call, from
    max|lambda| alone, joins G = 2^g fine buckets into cells of width H with
    max|lambda| * degree * H / 2 <= 1, shifts the moments to J =
    ``_CELL_TERMS`` moments about the cell centres, and adds cells of the
    same width below the buckets that hold each mid prime as an exact point
    (a j = 0 moment at v_p).  A frequency pays for the direct head and the
    cells (318 primes and 343 cells, 87 of them mid, on the R = 360 grid at
    N = 10^6, k = 2, against 1229 head primes and 4096 buckets): per block
    of L frequencies, one (L, P) and one (L, cells) cos/sin pass, degree - 1
    in-place products and per degree one (L, cells) @ (cells, J) GEMM,
    combined by Horner.

    The build costs O(pi(N)) once.  After the bucket means (one pass over
    v_p), the tail primes are visited in chunks of ``_BUILD_CHUNK``: per
    chunk, the marginal rows give c_d = B @ (monomials of F_1..F_{k-1}) with
    one constant matrix B per k, and the moments of each order j are summed
    over the chunk's contiguous bucket runs (primes are sorted, so every
    bucket is one slice) by one ``np.add.reduceat``; a bucket spanning two
    chunks is added to twice.  No per-prime array longer than a chunk is ever complex: the
    build at N = 10^8 (5.76 M tail primes) allocates at most 94 MB besides
    the prime table, 16 bytes a tail prime for v_p and the bucket index.

    ``truncation_bound(lam_max)`` bounds the error in log phi_N, i.e. the
    relative error: |fast / exact - 1| <= e^bound - 1 for |lambda| <= lam_max.
    It adds the remainders of the fine-bucket phase expansion, of the log
    series and of the cell expansion.  It bounds the series truncation only;
    accumulating ~pi(N) floating-point terms adds a machine-roundoff floor
    (order 1e-13 relative at N = 10^6) that the bound does not include.
    """

    def __init__(
        self,
        cfg: EnsembleConfig,
        head_limit: int = _FAST_HEAD_LIMIT,
        buckets: int = 4096,
    ):
        if cfg.k > 4:
            raise DomainError("FastCharfn supports k <= 4")
        self.cfg = cfg
        self.table = sieve_primes(cfg.N)
        self.log_n = math.log(cfg.N)
        d_star = threshold_prime(cfg)
        self.head_limit = max(int(head_limit), d_star)
        self.split = int(np.searchsorted(self.table.primes, self.head_limit, side="right"))
        head = self.table.primes[: self.split].astype(float)
        rows = _marginal_rows(cfg.k, cfg.alpha, head)
        # rem[i]: order-5 log remainder of primes[i:split]; the mid primes are the
        # longest such run inside _MID_BUDGET that leaves every p <= d* direct
        rem = np.append(np.cumsum(_order5_remainder(rows)[::-1])[::-1], 0.0)
        direct = int(np.searchsorted(head, d_star, side="right"))
        self.mid_start = max(int(np.count_nonzero(rem > _MID_BUDGET)), direct)
        self._head_v = np.log(head[: self.mid_start]) / self.log_n
        self._head_rows = [row[: self.mid_start] for row in rows]
        self._mid_v = np.log(head[self.mid_start :]) / self.log_n
        self._mid_c = _log_series_coeffs(cfg.k, [row[self.mid_start :] for row in rows])

        primes = self.table.primes[self.split :]
        if primes.size == 0:
            raise DomainError("no tail primes to bucket; lower head_limit or raise N")
        v = np.log(primes) / self.log_n
        # bucket by v; primes are sorted, so idx is nondecreasing
        edges = np.linspace(v.min(), v.max() * (1 + 1e-12), buckets + 1)
        idx = np.searchsorted(edges, v, side="right")
        idx -= 1
        np.clip(idx, 0, buckets - 1, out=idx)
        counts = np.bincount(idx, minlength=buckets)
        sums = np.bincount(idx, weights=v, minlength=buckets)
        vbar = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

        k = cfg.k
        degree = 4 * (k - 1)
        # moments M[d][j][b] = sum_p c_d(p) (v - vbar)^j
        moments = np.zeros((degree + 1, 4, buckets), dtype=complex)
        abs4 = np.zeros(degree + 1)
        log_remainder = 0.0
        for start in range(0, primes.size, _BUILD_CHUNK):
            stop = start + _BUILD_CHUNK
            rows = _marginal_rows(k, cfg.alpha, primes[start:stop].astype(float))
            c = _log_series_coeffs(k, rows)
            b = idx[start:stop]
            dv = v[start:stop] - vbar[b]
            runs = np.flatnonzero(np.diff(b, prepend=-1))
            dj = np.ones_like(dv)
            for j in range(4):
                moments[:, j, b[runs]] += np.add.reduceat(c * dj, runs, axis=1)
                dj = dj * dv
            abs4 += np.abs(c) @ dj  # dj = dv^4
            # order-5 log remainder: |w| <= envelope E(p) < 1/2 beyond the head
            log_remainder += float(np.sum(_order5_remainder(rows)))
        self._moments = moments
        self._abs4 = abs4
        self._log_remainder = log_remainder + float(rem[self.mid_start])
        self._vbar = vbar
        self._degree = degree
        self._v0 = float(edges[0])
        self._width = float(edges[-1] - edges[0]) / buckets  # of a fine bucket

    def _cells(self, lam_max: float) -> tuple[float, np.ndarray, np.ndarray]:
        """H/2, the cell centres U_c and K[d - 1, c, n] (d >= 1) for max|lambda| = lam_max.

        A cell joins G fine buckets, G the largest power of two <= buckets with
        lam_max * degree * H / 2 <= 1 (or 1).  K[d, n, c] = sum_{b in c}
        sum_{j<=min(3,n)} C(n, j) M[d, j, b] (vbar_b - U_c)^{n-j} (H/2)^{-n} / n!,
        so the degree-d tail is sum_c e^{i lambda d U_c} sum_{n<J} K t^n, t = i lambda d H/2.
        The first cells lie below the fine buckets and hold only mid primes.
        """
        nb, terms, degree = self._vbar.size, _CELL_TERMS, self._degree
        g = 1
        while 2 * g <= nb and g * abs(lam_max) * degree * self._width <= 1.0:
            g *= 2
        cells, half = -(-nb // g), g * self._width / 2.0
        # the mid primes fill `below` more cells of width H below v0
        below = int(np.ceil((self._v0 - np.min(self._mid_v, initial=self._v0)) / (2.0 * half)))
        mid = np.floor((self._mid_v - self._v0) / (2.0 * half)).astype(int) + below  # their cells
        centres = self._v0 + (2 * np.arange(-below, cells) + 1) * half
        u = np.zeros(cells * g + mid.size)  # (v - U_c) / (H/2) in [-1, 1]; 0 for empty buckets
        u[:nb] = np.where(self._vbar > 0, self._vbar - np.repeat(centres[below:], g)[:nb], 0.0) / half
        u[cells * g :] = (self._mid_v - centres[mid]) / half
        powers = np.cumprod([np.ones_like(u)] + [u / m for m in range(1, terms)], axis=0).T  # u^m / m!
        # a mid prime is a point with only a j = 0 moment: K[d - 1, c] += c_d(p) u_p^n / n!
        points = np.zeros((degree, below, terms), dtype=complex)
        np.add.at(points, (slice(None), mid), self._mid_c[1:, :, None] * powers[cells * g :])
        # C(n, j) / n! = 1 / (j! (n-j)!): w[b, j, n] = u_b^{n-j} / (n-j)!, M gets (H/2)^{-j} / j!
        w = np.zeros((cells * g, 4, terms))
        for j in range(4):
            w[:, j, j:] = powers[: cells * g, : terms - j]
        scaled = np.zeros((cells * g, 4, degree), dtype=complex)
        scaled[:nb] = self._moments[1:].T / (half ** np.arange(4) * [1, 1, 2, 6])[:, None]
        # one batched real GEMM over the cells, on the complex moments' float view
        shifted = w.reshape(cells, 4 * g, terms).transpose(0, 2, 1) @ scaled.view(float).reshape(cells, 4 * g, 2 * degree)
        return half, centres, np.concatenate([points, shifted.view(complex).transpose(2, 0, 1)], axis=1)

    def truncation_bound(self, lam_max: float) -> float:
        """Bound on |log fast - log phi_N| for |lambda| <= lam_max: a relative error.

        |fast / phi_N - 1| <= e^bound - 1; the absolute error scales with
        |phi_N|, which exceeds 1 for some alpha (50.9 at k = 3, alpha = -1.5,
        N = 10^6, lambda = 300).  Roundoff is not included (see the class).
        The bound is the sum of three terms.  Phase: |e^{i t} - sum_{j<=3}|
        <= t^4/24 per fine bucket, against the |c_d| (v - vbar)^4 moments;
        the mid primes sit at their own v_p and add nothing here.  Log: the
        order-5 remainder of the log series over the tail and the mid primes.
        Cell: the cut of the cell expansion, sum_{d,j,b} |M[d, j, b]|
        (lam_max d)^j / j! r_{J-j}(x_d) plus sum_{d,p} |c_d(p)| r_J(x_d) over
        the mid primes, r_m(x) = sum_{n>=m} x^n / n! <= x^m e^x / m!,
        x_d >= |lambda| d H / 2 on every grid with max|lambda| <= lam_max.
        """
        lam_max, degree = abs(lam_max), self._degree
        phase = sum(self._abs4[d] * (lam_max * d) ** 4 / 24.0 for d in range(degree + 1))
        # a layout keeps max|lambda| degree H / 2 <= 1 unless H is one fine
        # bucket, and H is at most the widest cell
        x_fine = lam_max * degree * self._width / 2.0
        d, j = np.arange(1, degree + 1)[:, None], np.arange(4)
        x = min(x_fine * (1 << (self._vbar.size.bit_length() - 1)), max(1.0, x_fine)) * d / degree
        r = x ** (_CELL_TERMS - j) * np.exp(x) / np.array([math.factorial(_CELL_TERMS - i) for i in j])
        cell = np.abs(self._moments[1:]).sum(axis=2) * (lam_max * d) ** j / np.array([1, 1, 2, 6]) * r
        points = np.abs(self._mid_c[1:]).sum(axis=1) * r[:, 0]
        return float(phase + self._log_remainder + cell.sum() + points.sum())

    def grid(self, lams, block: int = 256) -> np.ndarray:
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        out = np.empty(lams.shape, dtype=complex)
        half, centres, cell_moments = self._cells(np.max(np.abs(lams), initial=0.0))
        for start in range(0, lams.size, block):
            lam = lams[start : start + block]
            # tail: per degree d, one (L, C) @ (C, J) product against the cell
            # moments, combined by Horner in t = i lam d H / 2
            base = _cis(np.outer(lam, centres))  # (L, C)
            phase = base.copy()
            acc = np.full(lam.shape, complex(self._moments[0, 0].sum() + self._mid_c[0].sum()))
            for d in range(1, self._degree + 1):
                if d > 1:
                    phase *= base
                t = 1j * lam * (d * half)
                acc += functools.reduce(lambda s, m_n: s * t + m_n, (phase @ cell_moments[d - 1]).T[::-1])
            # head: z_p = sum_t F_t(p) X^t by Horner in X = e^{i lam v_p}, multiplied
            # directly (equal to exponentiating the sum of principal logs)
            hphase = _cis(np.outer(lam, self._head_v))  # (L, H)
            z = np.zeros_like(hphase)
            for row in self._head_rows[:0:-1]:
                z += row
                z *= hphase
            z += self._head_rows[0]
            out[start : start + lam.size] = np.prod(z, axis=1) * np.exp(acc)
        out[lams == 0.0] = 1.0
        return out


def charfn_for(cfg: EnsembleConfig):
    """The phi_N evaluator for cfg: CharfnEvaluator up to N = 10^4, else FastCharfn.

    10^4 is FastCharfn's default head cutoff, the floor of its fine buckets;
    at or below it there are no tail primes to bucket.
    """
    if cfg.N <= _FAST_HEAD_LIMIT:
        return CharfnEvaluator(cfg)
    return FastCharfn(cfg)


# ---------------------------------------------------------------------------
# error kernel
# ---------------------------------------------------------------------------


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
