"""Finite ensembles of k-free smooth integers under the complex prime-power measure.

The ensemble for parameters (k, alpha, N) is the set of integers
x = prod_{p <= N} p^{nu(p)} with every exponent in {0, ..., k-1}; it has
exactly k^pi(N) elements.  Each element carries weight alpha^Omega(x)/x where
Omega(x) = sum nu(p), and the total weight is the finite Euler product

    Z(k, alpha, N) = prod_{p <= N} (1 + alpha/p + ... + (alpha/p)^{k-1}).

This module provides:

* exact enumeration of the elements as plain integers (desk scale,
  size-capped), and Omega of a single integer with its membership test;
* one Euler-product kernel: the principal logs of the factors 1 + w (for
  Z past P, their log series) are summed over all primes and exponentiated
  once, which equals the direct product (a vanishing factor gives exactly 0);
* Richardson-style extrapolation of Z_N/(log N)^alpha toward its constant;
* the per-prime exponent marginals F_t(p) and the threshold prime past
  which every factor stays near 1;
* the finite-N characteristic function of xi(x) = log x / log N, both as an
  exact prime product and as a bucketed fast evaluator for dense frequency
  grids at large N, with one rule (:func:`charfn_for`) choosing between them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._quad import PanelGrid, gemm
from ._threads import map_blocks, one_blas_thread
from .errors import DegenerateConfigError, DomainError, SizeCapError
from .primes import _CHUNK, _PARALLEL_LIMIT, _TAIL_DEGREE, prime_count, prime_zeta_tails, sieve_primes

__all__ = [
    "EnsembleConfig",
    "PartitionConstantReport",
    "enumerate_ensemble",
    "partition_function",
    "partition_constant",
    "forbidden_alphas",
    "threshold_prime",
    "CharfnEvaluator",
    "FastCharfn",
    "charfn_for",
]

# the one cap on enumerated ensembles, sized to memory: the value and Omega
# lists take about 104 bytes an element, 0.44 GB at the cap
ENUMERATION_CAP = 1 << 22

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


def _ensemble_integers(cfg: EnsembleConfig, cap: int = ENUMERATION_CAP) -> tuple[list, list]:
    """All k^pi(N) elements as plain ints: (values, Omegas), sorted by value.

    A Kronecker product over the primes, each multiplying by p^0, ..., p^(k-1).
    """
    if _exceeds(cfg, cap):
        raise SizeCapError(
            f"ensemble has {cfg.k}^pi({cfg.N}) elements (> cap {cap}); "
            "use the product/spectral paths instead of enumeration"
        )
    primes = [int(p) for p in sieve_primes(cfg.N).primes]
    values, omegas = [1], [0]
    for p in primes:
        powers = [p**t for t in range(cfg.k)]
        values = [v * q for q in powers for v in values]
        omegas = [m + t for t in range(cfg.k) for m in omegas]
    order = sorted(range(len(values)), key=values.__getitem__)
    return [values[i] for i in order], [omegas[i] for i in order]


def _exceeds(cfg: EnsembleConfig, cap: int) -> bool:
    """k^pi(N) > cap, from the primes below 2^24 alone: pi(2^24) of them exceed every cap below 2^(2^20),
    so a table past the gate is not counted."""
    return cfg.k ** min(prime_count(min(cfg.N, _PARALLEL_LIMIT - 1)), cap.bit_length()) > cap


def enumerate_ensemble(cfg: EnsembleConfig, cap: int = ENUMERATION_CAP) -> list[int]:
    """All k^pi(N) elements as plain integers, sorted: what ``kfree enumerate`` prints."""
    return _ensemble_integers(cfg, cap)[0]


def _omega(cfg: EnsembleConfig, n: int) -> Optional[int]:
    """Omega(n) for an element n of the ensemble; None when n is not one.

    Trial division by the primes up to sqrt(n); n is outside the ensemble when
    a prime divides it k or more times or its last prime factor exceeds N.
    """
    omega, rem, table = 0, n, sieve_primes(cfg.N)
    for p in table.upto(min(cfg.N, math.isqrt(n))):
        p = int(p)
        if p * p > rem:
            break
        t = 0
        while rem % p == 0:
            rem //= p
            t += 1
        if t >= cfg.k:
            return None
        omega += t
    if rem > cfg.N:
        return None
    return omega + (rem > 1)


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
    table = sieve_primes(cfg.N)
    a = abs(complex(cfg.alpha))
    p = table.upto(8.0 * a).astype(float)
    rows = _marginal_rows(cfg.k, cfg.alpha, p)
    bad = np.nonzero(_envelope(rows) >= 0.5)[0]
    d_star = int(p[bad[-1]]) if bad.size else 2
    if d_star <= a:
        # the first prime above |alpha|, or the last prime if none is
        d_star = table.after(a) or int(table.last()[-1])
    return d_star


# ---------------------------------------------------------------------------
# partition function and its constant
# ---------------------------------------------------------------------------


def _clog1p(w: np.ndarray) -> np.ndarray:
    """Principal log(1 + w) elementwise over a complex array, accurate for small |w|.

    For |w| >= 1/2 the real part is log|1 + w|, accurate as 1 + w nears 0.
    """
    w = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        re = 0.5 * np.log1p(2.0 * w.real + w.real**2 + w.imag**2)
    far = np.abs(w) >= 0.5
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


def _log_euler(w: np.ndarray) -> complex | np.ndarray:
    """Sum over the last axis of Log(1 + w), whose exp is the product of the factors 1 + w.

    A vanishing factor adds -inf, so the product is exactly 0.  Each row sum is
    the pairwise sum of the 1-d case, bit for bit.
    """
    with np.errstate(divide="ignore"):
        return np.sum(_clog1p(w), axis=-1)


def _log_product(cfg: EnsembleConfig, x) -> complex:
    """Sum over p <= N of Log(1 + x + ... + x^{k-1}), x = x(p), over ``_CHUNK``-prime chunks in order."""
    return sum(sieve_primes(cfg.N).map_chunks(lambda p: _log_euler(_factor_offset(cfg.k, x(p)))), 0j)


def _series_head(k: int, alpha: complex) -> int:
    """P = max(10^4, 2|alpha|, |alpha| ((k - 1) |alpha| / 1.5e-16)^(1/5)), where a log series of degree 5
    takes over from the principal logs: its cut, sum_{d>=6} (k - 1)/d |alpha|^d S_d <= (k - 1) |alpha|^6 /
    (15 P^5) for |alpha| <= P/2 (S_d = sum_{p>P} p^-d, S_6 <= int_P^inf t^-6 dt), is below 1e-17 there.
    That is 10^4, FastCharfn's cut, for |alpha| < 2 and k <= 235."""
    a = abs(alpha)
    return math.ceil(max(_FAST_HEAD_LIMIT, 2.0 * a, a * ((k - 1) * a / 1.5e-16) ** 0.2))


def _series_log(table, k: int, alpha: complex) -> complex:
    """sum_p Log(1 + x + ... + x^{k-1}), x = alpha/p, over the table: principal logs over the chunks of the
    table up to P = :func:`_series_head`, then the log series sum_{d<=5} a_d alpha^d S_d, S_d = sum_{p>P} p^-d
    from the table's :meth:`~kfree.primes.PrimeTable.power_sums`."""
    head = min(_series_head(k, alpha), table.limit)
    log_head = sum(sieve_primes(head).map_chunks(lambda p: _log_euler(_factor_offset(k, alpha / p))), 0j)
    return log_head + sum(_log_coeffs(k, alpha, _LOG_DEGREE + 1) * table.power_sums(head))


def partition_function(cfg: EnsembleConfig) -> complex:
    """Finite Euler product prod_{p<=N} (1 + alpha/p + ... + (alpha/p)^{k-1}).

    The principal logs of the factors up to P (:func:`_series_log`) and the
    degree-5 log series past P are summed and exponentiated once; a vanishing
    factor, always below P, makes Z exactly 0.  It never needs the exponent
    marginals (which pole on the forbidden rays where Z itself is simply 0).
    """
    with np.errstate(over="ignore"):  # a Z past binary64 is inf, which the callers refuse
        z = complex(np.exp(_series_log(sieve_primes(cfg.N), cfg.k, cfg.alpha)))
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


# degree at which FastCharfn cuts the log series of z_p in X, for every k
_LOG_DEGREE = _TAIL_DEGREE


def _log_coeffs(k: int, alpha: complex, degree: int = _LOG_DEGREE) -> np.ndarray:
    """a_d alpha^d for d = 1..degree, a_d = (1 - k [k | d]) / d: the X^d coefficients of log z_p times p^d.

    z_p(X) = sum_t F_t X^t = (1 - x)(1 - (xX)^k) / ((1 - x^k)(1 - xX)) with
    x = alpha/p, so log z_p(X) = sum_{d>=1} a_d x^d (X^d - 1) for |x| < 1; at
    X = 0, log(1 + x + ... + x^{k-1}) = sum_d a_d x^d.
    """
    a = [1.0 / d - (k / d if d % k == 0 else 0.0) for d in range(1, degree + 1)]
    return np.array([a_d * complex(alpha) ** d for d, a_d in enumerate(a, 1)])


def _predicted_constant(k: int, alpha: complex) -> complex:
    """Independent route to the constant: exp(alpha*M + sum_p [log z_p - alpha/p]).

    Convergent because log z_p - alpha/p = O(p^-2).  Up to P = :func:`_series_head`
    (10^4 for |alpha| < 2) each prime adds its principal log less alpha/p, so the
    terms are O(p^-2) before they are summed, exactly (``math.fsum``) per chunk,
    since the first few outweigh the rest together; past P the log series
    sum_{d=2..5} a_d alpha^d sum_{p>P} p^-d (a_d from :func:`_log_coeffs`), whose
    infinite tails come from the prime zeta function
    (:func:`~kfree.primes.prime_zeta_tails`).
    """
    alpha = complex(alpha)
    table = sieve_primes(_series_head(k, alpha))

    def less_x(p: np.ndarray) -> complex:
        terms = _clog1p(_factor_offset(k, alpha / p)) - alpha / p
        return complex(math.fsum(terms.real), math.fsum(terms.imag))

    head = sum(table.map_chunks(less_x), 0j)
    tail = _log_coeffs(k, alpha, _LOG_DEGREE + 1)[1:] @ prime_zeta_tails(table.limit)
    return complex(np.exp(alpha * MERTENS + head + tail))


def _check_constant_weight(k: int, alpha: complex) -> None:
    """Raise unless the constant C(k, alpha) exists: alpha off the forbidden set, |alpha| < 2."""
    if any(abs(alpha - z) < 1e-12 for z in forbidden_alphas(k, max(3, int(abs(alpha)) + 1))):
        raise DegenerateConfigError(f"alpha = {alpha} lies in the forbidden set")
    if abs(alpha) >= 2:
        raise DomainError("precondition failed: |alpha| < 2")


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
    _check_constant_weight(k, alpha)
    n_values = tuple(sorted(int(n) for n in n_values))
    if len(n_values) < 3:
        raise DomainError("need at least 3 N values to extrapolate")
    repeated = sorted({a for a, b in zip(n_values, n_values[1:]) if a == b})
    if repeated:
        raise DomainError(f"N values must be distinct to extrapolate; repeated: {', '.join(map(str, repeated))}")
    sieve_primes(n_values[-1])  # the largest table first: the rungs below 2^24 are slices of it or of its head
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
# finite-N characteristic function
# ---------------------------------------------------------------------------


def _cis_minus_one(theta: np.ndarray) -> np.ndarray:
    """e^{i*theta} - 1 without cancellation: -2 sin^2(theta/2) + i sin(theta)."""
    half = np.sin(0.5 * theta)
    return -2.0 * half * half + 1j * np.sin(theta)


class CharfnEvaluator:
    """Exact prime-product evaluator of the finite-N characteristic function.

    phi_N(lambda) = prod_{p<=N} sum_t F_t(p) e^{i lambda t log p / log N}.
    Each factor is 1 + w with w = sum_t F_t(p) (e^{i lambda t v_p} - 1), and
    every prime goes through the Euler-product kernel: the principal logs of
    the factors are summed, chunk by chunk, and exponentiated once.  A grid
    costs one pass per ``_CHUNK``-prime chunk and block of max(1, _CHUNK // chunk)
    frequencies, over (block, chunk) arrays of at most ``_CHUNK`` entries.
    """

    def __init__(self, cfg: EnsembleConfig):
        self.cfg = cfg
        self.table = sieve_primes(cfg.N)
        self.log_n = math.log(cfg.N)

    def grid(self, lams) -> np.ndarray:
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        k = self.cfg.k

        def chunk_log(p: np.ndarray) -> np.ndarray:
            v = np.log(p) / self.log_n
            rows = _marginal_rows(k, self.cfg.alpha, p)
            block = max(1, _CHUNK // p.size)
            log = np.empty(lams.shape, dtype=complex)
            for lo in range(0, lams.size, block):
                lam = lams[lo : lo + block, None]
                w = np.zeros((lam.shape[0], p.size), dtype=complex)
                for t in range(1, k):
                    w += rows[t] * _cis_minus_one(lam * t * v)
                log[lo : lo + block] = _log_euler(w)
            return log

        out = np.exp(sum(self.table.map_chunks(chunk_log), 0j))
        out[lams == 0.0] = 1.0
        return out

    def truncation_bound(self, lam_max: float) -> float:
        return 0.0  # an exact product; like FastCharfn's, its round-off is not bounded


def _positive_product(cfg: EnsembleConfig, strip: float) -> float:
    """prod_p sum_t |alpha|^t p^{-t} e^{strip t v_p}, one positive Euler product: it bounds
    |Z phi_N(lambda)| over |Im lambda| <= strip, and is Z(k, |alpha|, N) at strip 0."""
    return float(np.exp(_log_product(cfg, lambda p: abs(cfg.alpha) * np.exp(strip / cfg.log_n * np.log(p)) / p).real))


# FastCharfn's head cutoff, the floor of its fine buckets (the direct head is
# smaller); at or below it there are no tail primes
_FAST_HEAD_LIMIT = 10**4

_FAST_BUCKETS = 4096  # FastCharfn's default fine buckets

# fewest tail primes FastCharfn lays out.  One prime leaves the fine buckets
# zero wide, and two (N = 10009) give the mid primes 11,091 cells: 0.71 s on the
# 2,880-node R = 360 grid against 0.24 s for CharfnEvaluator, while three
# (N = 10037) take 742 cells and 0.05 s, and every later N fewer (2-core host)
_MIN_TAIL = 3


def _tail_split(cfg: EnsembleConfig, table) -> Optional[tuple]:
    """(d*, x) of FastCharfn's layout over ``table``, the primes <= N: d* = ``threshold_prime``, and
    the tail the primes > x = max(10^4, d*); None when it has fewer than ``_MIN_TAIL``, which the
    table's last primes tell without a count."""
    d_star = threshold_prime(cfg)
    head = max(_FAST_HEAD_LIMIT, d_star)
    if cfg.N <= head or table.last()[-_MIN_TAIL] <= head:
        return None
    return d_star, head


def _log_remainder(k: int, r):
    """2 (k - 1) r^5 / (5 (1 - r)): bounds the terms d > 4 of log z_p where |x| <= r < 1,
    since |a_d| <= (k - 1) / d and |X^d - 1| <= 2."""
    return 2.0 * (k - 1) * r**5 / (5.0 * (1.0 - r))


# radius and terms of FastCharfn's cell series: degree d's offsets reach x_d = d, where the cut r_J(x_d)
# <= x_d^J e^x_d / J! and rounding (up to e^x_d-fold) act on sum |M_d| = 0.4, 5e-6, 2e-10, 1e-14 (N = 10^6)
_CELL_RADIUS, _CELL_TERMS = 4, 27

# log-series remainder allowed to the mid primes, which FastCharfn expands
# instead of multiplying: a tenth of its ~1e-13 round-off floor
_MID_BUDGET = 1e-14


class FastCharfn:
    """Bucketed evaluator of phi_N for dense frequency grids at large N.

    The primes fall into three groups.  The direct head, every prime up to
    a cutoff P (181 primes, P = 1087, at k = 2, alpha = 1), is multiplied
    factor by factor.  Past P, log z_p(lambda) is the polynomial
    sum_d c_d(p) X^d in X = e^{i lambda v_p} (v_p = log p / log N) from
    the closed form log z_p(X) = sum_{d>=1} a_d x^d (X^d - 1), x = alpha/p,
    a_d = (1 - k [k | d]) / d (see :func:`_log_coeffs`), cut at degree 4
    for every k: c_d = a_d alpha^d p^-d, c_0 = -sum_{d>=1} c_d, and each
    prime leaves at most 2 (k - 1) |x|^5 / (5 (1 - |x|)).  The mid primes,
    P < p <= head cutoff, are the longest run whose remainder stays within
    ``_MID_BUDGET``, with P >= ``threshold_prime``.  The tail primes past
    the head cutoff max(10^4, d*) go to ``buckets`` equal-width fine
    buckets in v; the build stores the moments M[d, j, b] =
    sum_p c_d(p) (v_p - vbar_b)^j, j <= 3, of a third-order expansion of
    e^{i lambda d v} about each bucket mean.  Each ``grid`` call, from
    max|lambda| alone, joins G = 2^g fine buckets into cells of width H with
    max|lambda| * degree * H / 2 <= 4 (``_CELL_RADIUS``), shifts the moments
    to J = 27 (``_CELL_TERMS``) moments about the cell centres, and adds
    cells of the same width below the buckets that hold each mid prime as an
    exact point (a j = 0 moment at v_p).  A frequency pays for the direct head
    and the cells (181 primes and 95 cells, 31 of them mid, on the R = 360 grid
    at N = 10^6, k = 2, against 1229 head primes and 4096 buckets): per
    block of L nodes lambda = m + t, whole panels of a ``PanelGrid`` (plain
    nodes have the one offset t = 0), one (panels, P + cells) cos/sin pass
    times the offsets' phases e^{i t v}, 3 in-place products and per degree
    one (L, cells) @ (cells, J) GEMM, combined by Horner.  The build and the
    grid run on one BLAS thread and share their independent pieces (a grid's
    blocks; from N = 2^24 on, the tail pass's sieve segments) among the workers of
    :func:`~kfree._threads.map_blocks`; no value depends on how many there are.

    A tail of fewer than ``_MIN_TAIL`` primes, or one narrower than a
    ``buckets``-th of the mid primes' span in v (N just past 10^4, few buckets),
    raises :class:`DomainError` before the tail pass; :func:`charfn_for`
    takes the exact evaluator for the first and never meets the second.

    The build costs O(pi(N)) once per table, the same for every k and alpha:
    M[d, j, b] = a_d alpha^d S[d, j, b] with the real sums S[d, j, b] =
    sum_{p in b} p^-d (v_p - vbar_b)^j, d, j <= 4 (j = 4 gives the phase
    term of the bound), and sum p^-5 for the log term, from the table's
    cached :meth:`~kfree.primes.PrimeTable.tail_sums` (whose d >= 2 sums, a
    series, hold to 1e-14 of their terms' absolute sums) and sum p^-5 from
    its :meth:`~kfree.primes.PrimeTable.power_sums`, the plain sums Z reads.
    All of them, like the head and the first tail prime, are read by the value
    cut max(10^4, d*), so no build counts the table; ``split`` is the number
    of primes up to the cut.

    ``truncation_bound(lam_max)`` bounds the error in log phi_N, i.e. the
    relative error: |fast / exact - 1| <= e^bound - 1 for |lambda| <= lam_max.
    It adds the remainders of the fine-bucket phase expansion, of the log
    series and of the cell expansion.  It bounds the series truncation only;
    accumulating ~pi(N) floating-point terms adds a machine-roundoff floor
    (order 1e-13 relative at N = 10^6) that the bound does not include.
    """

    @one_blas_thread()
    def __init__(self, cfg: EnsembleConfig, buckets: int = _FAST_BUCKETS):
        self.cfg = cfg
        self.table = sieve_primes(cfg.N)
        layout = _tail_split(cfg, self.table)
        if layout is None:
            raise DomainError(f"fewer than {_MIN_TAIL} tail primes to bucket; raise N")
        d_star, cut = layout
        self.log_n = math.log(cfg.N)
        k, coef = cfg.k, _log_coeffs(cfg.k, cfg.alpha)
        head = self.table.upto(cut).astype(float)
        self.split = head.size
        # rem[i]: log remainder of head[i:] (|x| < 1/3 past d*, so the cap
        # at 1/2 only touches direct primes); the mid primes are the longest
        # such run inside _MID_BUDGET that leaves every p <= d* direct
        rem = np.append(np.cumsum(_log_remainder(k, np.minimum(abs(cfg.alpha) / head, 0.5))[::-1])[::-1], 0.0)
        direct = int(np.searchsorted(head, d_star, side="right"))
        self.mid_start = max(int(np.count_nonzero(rem > _MID_BUDGET)), direct)
        self._mid_v = np.log(head[self.mid_start :]) / self.log_n
        # a mid span of more than `buckets` tail widths puts more cells below v0 than any layout has buckets
        p0 = float(self.table.after(cut))
        v0, v1 = np.log(np.array([p0, self.table.last()[-1]])) / self.log_n
        if v0 - np.min(self._mid_v, initial=v0) > buckets * (v1 - v0):
            raise DomainError(f"the mid primes span more than {buckets} tail widths; raise N or buckets")
        self._head_v = np.log(head[: self.mid_start]) / self.log_n
        self._head_rows = _marginal_rows(k, cfg.alpha, head[: self.mid_start])
        inv = 1.0 / head[self.mid_start :]
        c = coef[:, None] * np.cumprod(np.broadcast_to(inv, (_LOG_DEGREE, inv.size)), axis=0)  # a_d alpha^d p^-d
        self._mid_c = np.concatenate([-c.sum(axis=0, keepdims=True), c])

        self._vbar, S, self._v0, self._width = self.table.tail_sums(cut, buckets)  # alpha- and k-free
        # M[d, j, b] = a_d alpha^d S[d, j, b] and M[0, 0] = -sum_d M[d, 0]; for
        # each d, _abs4[d] = sum_p |c_d(p)| (v_p - vbar_b)^4
        self._moments = np.zeros((_LOG_DEGREE + 1, 4, buckets), dtype=complex)
        self._moments[1:] = coef[:, None, None] * S[:, :4]
        self._moments[0, 0] = -self._moments[1:, 0].sum(axis=0)
        self._abs4 = np.append(0.0, np.abs(coef) * S[:, 4].sum(axis=1))
        # the tail's log remainder, |x| <= |alpha| / p0 for all of it
        s5 = self.table.power_sums(cut)[4]
        self._log_remainder = float(_log_remainder(k, abs(cfg.alpha) / p0) * p0**5 * s5 + rem[self.mid_start])
        self._degree = _LOG_DEGREE

    def _cells(self, lam_max: float) -> tuple[float, np.ndarray, np.ndarray]:
        """H/2, the cell centres U_c and K[d - 1, c, n] (d >= 1) for max|lambda| = lam_max.

        A cell joins G fine buckets, G the largest power of two <= buckets with
        lam_max * degree * H / 2 <= ``_CELL_RADIUS`` (or 1).  K[d, n, c] = sum_{b in c}
        sum_{j<=min(3,n)} C(n, j) M[d, j, b] (vbar_b - U_c)^{n-j} (H/2)^{-n} / n!,
        so the degree-d tail is sum_c e^{i lambda d U_c} sum_{n<J} K t^n, t = i lambda d H/2.
        The first cells lie below the fine buckets and hold only mid primes.
        """
        nb, terms, degree = self._vbar.size, _CELL_TERMS, self._degree
        g = 1
        while 2 * g <= nb and g * abs(lam_max) * degree * self._width <= _CELL_RADIUS:
            g *= 2
        cells, half = -(-nb // g), g * self._width / 2.0
        # the mid primes fill `below` more cells of width H below v0
        below = int(np.ceil((self._v0 - np.min(self._mid_v, initial=self._v0)) / (2.0 * half)))
        mid = np.floor((self._mid_v - self._v0) / (2.0 * half)).astype(int) + below  # their cells, sorted
        centres = self._v0 + (2 * np.arange(-below, cells) + 1) * half
        u = np.zeros(cells * g + mid.size)  # (v - U_c) / (H/2) in [-1, 1]; 0 for empty buckets
        u[:nb] = np.where(self._vbar > 0, self._vbar - np.repeat(centres[below:], g)[:nb], 0.0) / half
        u[cells * g :] = (self._mid_v - centres[mid]) / half
        powers = np.cumprod([np.ones_like(u)] + [u / m for m in range(1, terms)], axis=0)  # P[m] = u^m / m!
        # a mid prime is a point with only a j = 0 moment: K[d - 1, c] += c_d(p) u_p^n / n!
        points = np.zeros((degree, below, terms), dtype=complex)
        runs = np.flatnonzero(np.diff(mid, prepend=-1))
        points[:, mid[runs]] = np.add.reduceat(self._mid_c[1:, :, None] * powers[:, cells * g :].T, runs, axis=1)
        # C(n, j) / n! = 1 / (j! (n-j)!): K[n] += P[n - j] M[j] (H/2)^-j / j!, per j one batched real GEMM
        scaled = np.zeros((4, cells * g, degree), dtype=complex)
        scaled[:, :nb] = self._moments[1:].transpose(1, 2, 0) / (half ** np.arange(4) * [1, 1, 2, 6])[:, None, None]
        scaled = scaled.view(float).reshape(4, cells, g, 2 * degree)
        P = powers[:, : cells * g].reshape(terms, cells, g).transpose(1, 0, 2)
        shifted = P @ scaled[0]
        for j in range(1, 4):
            shifted[:, j:] += P[:, : terms - j] @ scaled[j]
        return half, centres, np.concatenate([points, shifted.view(complex).transpose(2, 0, 1)], axis=1)

    def truncation_bound(self, lam_max: float) -> float:
        """Bound on |log fast - log phi_N| for |lambda| <= lam_max: a relative error.

        |fast / phi_N - 1| <= e^bound - 1; the absolute error scales with
        |phi_N|, which exceeds 1 for some alpha (50.9 at k = 3, alpha = -1.5,
        N = 10^6, lambda = 300).  Roundoff is not included (see the class).
        The bound is the sum of three terms.  Phase: |e^{i t} - sum_{j<=3}|
        <= t^4/24 per fine bucket, against the |c_d| (v - vbar)^4 moments;
        the mid primes sit at their own v_p and add nothing here.  Log: the
        cut of the log series at degree 4, sum_p 2 (k - 1) |x|^5 / (5 (1 - |x|)),
        over the mid primes and (with |x| <= |alpha| / p0, p0 the first tail
        prime) over the tail.
        Cell: the cut of the cell expansion, sum_{d,j,b} |M[d, j, b]|
        (lam_max d)^j / j! r_{J-j}(x_d) plus sum_{d,p} |c_d(p)| r_J(x_d) over
        the mid primes, r_m(x) = sum_{n>=m} x^n / n! <= x^m e^x / m!,
        x_d >= |lambda| d H / 2 on every grid with max|lambda| <= lam_max: a
        layout keeps max|lambda| degree H / 2 <= 4 (``_CELL_RADIUS``) unless H
        is one fine bucket, and H is at most the widest cell.
        """
        lam_max, degree = abs(lam_max), self._degree
        phase = sum(self._abs4[d] * (lam_max * d) ** 4 / 24.0 for d in range(degree + 1))
        x_fine = lam_max * degree * self._width / 2.0
        d, j = np.arange(1, degree + 1)[:, None], np.arange(4)
        x = min(x_fine * (1 << (self._vbar.size.bit_length() - 1)), max(_CELL_RADIUS, x_fine)) * d / degree
        r = x ** (_CELL_TERMS - j) * np.exp(x) / np.array([math.factorial(_CELL_TERMS - i) for i in j])
        cell = np.abs(self._moments[1:]).sum(axis=2) * (lam_max * d) ** j / np.array([1, 1, 2, 6]) * r
        points = np.abs(self._mid_c[1:]).sum(axis=1) * r[:, 0]
        return float(phase + self._log_remainder + cell.sum() + points.sum())

    @one_blas_thread()
    def grid(self, lams, block: int = 256) -> np.ndarray:
        """phi_N on ``lams``, whole panels of about ``block`` nodes at a time (see :func:`map_blocks`)."""
        grid = PanelGrid.of(lams)
        lams, per = grid.points, grid.offsets.size
        out = np.empty(lams.shape, dtype=complex)
        half, centres, cell_moments = self._cells(np.max(np.abs(lams), initial=0.0))
        v = np.concatenate([centres, self._head_v])
        et = grid.offset_phases(v)

        def panels(lo: int, hi: int) -> None:
            lam = lams[lo * per : hi * per]
            phases = (grid.centre_phases(v, lo, hi)[:, None] * et).reshape(lam.size, v.size)
            # tail: per degree d, one (L, C) @ (C, J) product against the cell
            # moments, combined by Horner in t = i lam d H / 2
            base, hphase = phases[:, : centres.size], phases[:, centres.size :]
            phase = base.copy()
            acc = np.full(lam.shape, complex(self._moments[0, 0].sum() + self._mid_c[0].sum()))
            for d in range(1, self._degree + 1):
                if d > 1:
                    phase *= base
                t = 1j * lam * (d * half)
                acc += functools.reduce(lambda s, m_n: s * t + m_n, gemm(phase, cell_moments[d - 1]).T[::-1])
            # head: z_p = sum_t F_t(p) X^t by Horner in X = e^{i lam v_p}, multiplied
            # directly (equal to exponentiating the sum of principal logs)
            z = np.zeros_like(hphase)
            for row in self._head_rows[:0:-1]:
                z += row
                z *= hphase
            z += self._head_rows[0]
            out[lo * per : hi * per] = np.prod(z, axis=1) * np.exp(acc)

        map_blocks(panels, grid.centres.size, max(1, block // per))
        out[lams == 0.0] = 1.0
        return out


def charfn_for(cfg: EnsembleConfig):
    """The phi_N evaluator for cfg: FastCharfn where it has at least ``_MIN_TAIL`` tail
    primes past max(10^4, ``threshold_prime``), else CharfnEvaluator (so every N <= 10036).
    """
    if _tail_split(cfg, sieve_primes(cfg.N)) is None:
        return CharfnEvaluator(cfg)
    return FastCharfn(cfg)

