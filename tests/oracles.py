"""Reference implementations that only the tests call.

Each is either a quantity the library does not need at run time (the Laurent
partial sum, the cancellation identity, the trivial characteristic-function
bound, the stationary-phase amplitude of the bump transform), an independent
route to a library value (the cutoff transform by adaptive quadrature, the
limit of the leading integral and the [0, 1] head of the density transform
by mpmath, Simpson over a density grid), or an earlier form of a library
route kept as the oracle it must match bit for bit (the recursive
``Factorization`` enumeration and the direct sum over it).
"""

import math

import mpmath
import numpy as np

from kfree._quad import complex_quad
from kfree.dickman import RhoGrid, _simpson, _w_prefactor, w_density
from kfree.ensemble import (
    ENUMERATION_CAP,
    EnsembleConfig,
    Factorization,
    LaurentCoeffs,
    _b0,
    _positive_product,
    partition_function,
)
from kfree.errors import DegenerateConfigError, DomainError, SizeCapError
from kfree.primes import sieve_primes
from kfree.smoothsum import TWO_PI, CutoffDescriptor


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
