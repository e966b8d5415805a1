"""Dickman-type density family and its limiting characteristic function.

Objects
-------
* ``h_constant(alpha)`` -- the Euler-product constant
  H(alpha) = (1/Gamma(alpha)) * prod_p (1 - alpha/p)^{-1} (1 - 1/p)^{alpha},
  computed in log space over chunks of the primes up to 10^4, with the
  prime-zeta tails past them.  H(1) = 1 exactly (every factor is 1).
  This is the plateau value a0 of rho_alpha.

* ``solve_rho(alpha, u_max, step)`` -- grid solution of the delayed ODE

      rho'(u) = -alpha * (u-1)^{alpha-1} * rho(u-1) / u^alpha,   u > 1,
      rho(u)  = a0 on [0, 1],

  for real alpha > 0.  Because the right-hand side never references rho(u)
  itself, each step is a 4th-order quadrature (Simpson) of the delayed
  history; the delayed midpoint value is interpolated with a centered cubic
  stencil.  On (1, 1.5] the solution has the closed form
  a0 * (1 - alpha * int_0^s t^{alpha-1}(1+t)^{-alpha} dt), used directly so
  the marching scheme never touches the (u-1)^{alpha-1} endpoint singularity.
  alpha = 1 reproduces the classical smooth-number density (1 - ln u on
  [1, 2], integral e^gamma over the half-line).

* ``w_density`` -- the normalized density
  w_alpha(u) = e^{-alpha*gamma}/Gamma(alpha) * u^{alpha-1} * rho_alpha(u),
  whose integral over [0, inf) is 1 (the sign of the exponent is fixed by
  that normalization; see the test-suite's quadrature checks).

* ``charfn_limit(alpha, lam)`` -- the limiting characteristic function
  phi^(alpha)(lam) = exp(alpha * g(lam)), with ``limit_exponent``
  g(lam) = -Cin(|lam|) + i*sign(lam)*Si(|lam|)
         = Ci(|lam|) - gamma - log|lam| + i*sign(lam)*Si(|lam|), g(0) = 0.
  Evaluating the exponent first keeps a single analytic branch for complex
  alpha (no power of a complex base is ever taken).

Complex alpha is served exclusively by the closed form; the ODE path requires
real alpha in (0, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import NODE_CAP
from .errors import DomainError, SizeCapError
from .primes import prime_zeta_tails, sieve_primes
from .specfun import EULER_GAMMA, ci_si_values, cin_values

__all__ = [
    "RhoGrid",
    "h_constant",
    "solve_rho",
    "rho_at",
    "w_density",
    "w_integral",
    "charfn_limit",
    "charfn_limit_grid",
    "limit_exponent",
]

@dataclass(frozen=True)
class RhoGrid:
    """Samples of rho_alpha on the uniform grid u = 0, step, ..., u_max."""

    alpha: float
    step: float
    u_max: float
    values: np.ndarray = field(repr=False)
    a0: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def u(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step


def h_constant(alpha: float) -> float:
    """Euler-product constant H(alpha) for real alpha in (0, 2), where it has no pole.

    The log of prod_{p<=P} (1-1/p)^alpha (1-alpha/p)^{-1}, P = 10^4, over
    ``_CHUNK``-prime chunks, each summed exactly, plus the tail
    sum_{d=2..5} (alpha^d - alpha)/d sum_{p>P} p^-d from the prime zeta
    function, as the partition constant takes it
    (:func:`~kfree.primes.prime_zeta_tails`).  The cut from d = 6 on is
    below 3e-21.
    """
    if isinstance(alpha, complex):
        if alpha.imag != 0.0:
            raise DomainError("h_constant is real-only")
        alpha = alpha.real
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"h_constant requires alpha in (0, 2), got {alpha}")
    if alpha == 1.0:
        return 1.0  # every factor is exactly 1 and Gamma(1) = 1
    table = sieve_primes(10**4)
    log_sum = sum(table.map_chunks(lambda p: math.fsum(alpha * np.log1p(-1.0 / p) - np.log1p(-alpha / p))))
    tail = sum((alpha**d - alpha) / d * t for d, t in enumerate(prime_zeta_tails(table.limit), 2))
    return math.exp(log_sum + tail) / math.gamma(alpha)


def _binomial_series_fill(alpha: float, a0: float, s: np.ndarray) -> np.ndarray:
    """Closed form on (1, 1.5]: a0*(1 - alpha*sum_m binom(-alpha,m) s^{alpha+m}/(alpha+m))."""
    acc = np.zeros_like(s)
    coef = 1.0  # binom(-alpha, m), starting at m = 0
    for m in range(0, 80):
        if m > 0:
            coef *= -(alpha + m - 1) / m  # binom(-a,m) = binom(-a,m-1)*(-(a+m-1))/m
        term = coef * s ** (alpha + m) / (alpha + m)
        acc += term
        if np.all(np.abs(term) < 1e-18):
            break
    return a0 * (1.0 - alpha * acc)


def solve_rho(alpha: float, u_max: float = 12.0, step: float = 1e-3) -> RhoGrid:
    """March the delayed ODE for real alpha in (0, 2); see the module docstring.

    ``step`` must divide 1 exactly (the unit delay must be a whole number of
    steps) and be <= 1e-3.  The grid ends at the multiple of ``step``
    nearest ``u_max``, one step further out where that falls short of it.
    """
    if isinstance(alpha, complex):
        if alpha.imag != 0.0:
            raise DomainError("the delay-ODE route is real-only; use charfn_limit for complex alpha")
        alpha = alpha.real
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"solve_rho requires real alpha in (0, 2), got {alpha}")
    if not u_max >= 1.0:
        raise DomainError("u_max must be >= 1")
    if not 0.0 < step <= 1e-3 + 1e-15:
        raise DomainError("step must be in (0, 1e-3]")
    if u_max / step + 1.0 > NODE_CAP:
        raise SizeCapError(f"u_max/step = {u_max / step:.3g} steps exceeds the {NODE_CAP}-node grid cap")
    m = int(round(1.0 / step))
    if abs(m * step - 1.0) > 1e-12:
        raise DomainError("step must divide 1 exactly (unit delay on the grid)")
    h = 1.0 / m
    n = int(round(u_max / h))
    if n * h + 1e-12 < u_max:  # rho_at's tolerance
        n += 1
    u_max = n * h

    a0 = h_constant(alpha)
    rho = np.empty(n + 1)
    top = min(n, m + m // 2)
    rho[: m + 1] = a0
    # closed-form fill on (1, 1.5]
    if top > m:
        s = h * np.arange(1, top - m + 1)
        rho[m + 1 : top + 1] = _binomial_series_fill(alpha, a0, s)
    if top < n:
        # slope factor g(u) = -alpha*(u-1)^{alpha-1}/u^alpha at nodes and midpoints
        u_nodes = h * np.arange(n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_nodes = -alpha * np.where(u_nodes > 1, u_nodes - 1.0, 1.0) ** (alpha - 1.0) / u_nodes ** np.where(
                u_nodes > 0, alpha, 0.0
            )
        u_mid = u_nodes[:-1] + h / 2
        g_mid = -alpha * np.where(u_mid > 1, u_mid - 1.0, 1.0) ** (alpha - 1.0) / u_mid**alpha
        # blocks of L steps share fully-known history (delayed stencil max
        # index i-m+3 stays below the block start for L = m-3)
        i = top
        L = m - 3
        # one-sided cubic weights at offsets 0.5 and 2.5 from a 4-node base,
        # used when the centered stencil would straddle an integer (the
        # solution has a derivative kink at every integer delayed argument)
        w_left = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0  # eval at t=2.5 on {0,1,2,3}
        w_right = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0  # eval at t=0.5 on {0,1,2,3}
        while i < n:
            j = min(i + L, n)
            idx = np.arange(i, j)
            d0 = rho[idx - m]
            d1 = rho[idx - m + 1]
            # centered cubic at half-offset: (-1/16, 9/16, 9/16, -1/16)
            dmid = (-(rho[idx - m - 1] + rho[idx - m + 2]) + 9.0 * (d0 + d1)) / 16.0
            # repair entries whose stencil crosses a kink node K*m
            for K in range(max(1, (i - m) // m), (j - m) // m + 2):
                for jj, wts in ((K * m - 1, w_left), (K * m, w_right)):
                    step_i = jj + m
                    if i <= step_i < j:
                        base = jj - 2 if wts is w_left else jj
                        dmid[step_i - i] = float(np.dot(wts, rho[base : base + 4]))
            inc = h / 6.0 * (g_nodes[idx] * d0 + 4.0 * g_mid[idx] * dmid + g_nodes[idx + 1] * d1)
            rho[i + 1 : j + 1] = rho[i] + np.cumsum(inc)
            i = j
    # rho_alpha is positive; clamp any far-tail undershoot at the solver's
    # error floor to honor that.  For alpha >= 1 the floor is ~5e-15 and the
    # clamp never fires at moderate u_max; for alpha < 1 the delayed cusp
    # (u-1)^alpha entering at u = 2 limits absolute accuracy to roughly
    # step^(alpha+1), so deep tails saturate at that level.
    np.maximum(rho, 0.0, out=rho)
    return RhoGrid(alpha=alpha, step=h, u_max=u_max, values=rho, a0=a0)


def rho_at(grid: RhoGrid, u) -> np.ndarray:
    """Cubic interpolation of rho on the grid (clamped stencils at the ends)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    inside = (u >= 0.0) & (u <= grid.u_max + 1e-12)
    if not np.all(inside | (u < 0)):
        raise DomainError("u beyond the solved grid; enlarge u_max")
    uu = u[inside]
    h = grid.step
    n = grid.values.size - 1
    j = np.clip((uu / h).astype(int), 1, n - 2)
    t = uu / h - j  # in [-? , ?], local coordinate relative to node j
    ym1, y0, y1, y2 = (grid.values[j - 1], grid.values[j], grid.values[j + 1], grid.values[j + 2])
    # Lagrange cubic on nodes -1,0,1,2
    out_in = (
        -t * (t - 1.0) * (t - 2.0) / 6.0 * ym1
        + (t * t - 1.0) * (t - 2.0) / 2.0 * y0
        - t * (t + 1.0) * (t - 2.0) / 2.0 * y1
        + t * (t + 1.0) * (t - 1.0) / 6.0 * y2
    )
    out[inside] = out_in
    return out


def _w_prefactor(alpha: float, a0: float) -> float:
    """1/(a0 * e^{alpha*gamma} * Gamma(alpha)): fixes integral(w) = 1.

    Both the sign of the gamma exponent and the division by the plateau value
    a0 are forced by the probability normalization; the Fourier identity
    against ``charfn_limit`` pins them independently (see the test suite).
    """
    return math.exp(-alpha * EULER_GAMMA) / (a0 * math.gamma(alpha))


def w_density(grid: RhoGrid, u):
    """Normalized density u^{alpha-1} * rho(u) / (a0 * e^{alpha*gamma} * Gamma(alpha)) on a scalar or an array.

    Zero for u < 0.  At u = 0 it takes its limit: 0 for alpha > 1, the
    plateau value for alpha = 1 and inf (an integrable singularity) for
    alpha < 1.  Beyond the solved grid it raises, as :func:`rho_at` does.
    """
    alpha = grid.alpha
    uu = np.asarray(u, dtype=float)
    rho = rho_at(grid, uu)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(uu < 0, 0.0, _w_prefactor(alpha, grid.a0) * uu ** (alpha - 1.0) * rho)
    return w if np.ndim(u) else float(w[0])


def w_integral(grid: RhoGrid) -> float:
    """integral of w over [0, u_max]: analytic on [0, 1], Simpson beyond.

    On [0, 1] the solution is the constant a0, so the u^{alpha-1} moment is
    exact there; splitting at 1 keeps the singular/curved endpoint out of the
    Simpson rule.
    """
    alpha = grid.alpha
    pref = _w_prefactor(alpha, grid.a0)
    head = pref * grid.a0 / alpha  # integral_0^1 u^{alpha-1} a0 du
    m = int(round(1.0 / grid.step))
    w = pref * grid.u[m:] ** (alpha - 1.0) * grid.values[m:]
    return head + _simpson(w, grid.step)


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson over equally spaced samples (trapezoid on a leftover)."""
    y = np.asarray(y, dtype=float)
    n = y.size - 1
    if n < 2:
        return float(0.5 * h * (y[0] + y[-1])) if n == 1 else 0.0
    if n % 2 == 1:
        extra = 0.5 * h * (y[-2] + y[-1])
        y = y[:-1]
    else:
        extra = 0.0
    s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
    return float(h / 3.0 * s + extra)


def charfn_limit(alpha: complex, lam: float) -> complex:
    """Limiting characteristic function exp(alpha * g(lam)); exactly 1 at 0.

    One point of :func:`charfn_limit_grid`, so scalar and grid values agree exactly.
    """
    return complex(charfn_limit_grid(alpha, [lam])[0])


def limit_exponent(lam: np.ndarray) -> np.ndarray:
    """g(lam) = -Cin(|lam|) + i*sign(lam)*Si(|lam|), the integral over [0, lam] of (e^{is} - 1)/s ds."""
    a = np.abs(lam)
    return -cin_values(a) + 1j * np.sign(lam) * ci_si_values(a)[1]


def charfn_limit_grid(alpha: complex, lam) -> np.ndarray:
    """Vectorized charfn_limit over a real grid."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.ones(lam.shape, dtype=complex)
    nz = np.abs(lam) > 0
    out[nz] = np.exp(complex(alpha) * limit_exponent(lam[nz]))
    return out
