"""Complex-capable special functions with per-call error bounds.

The exponential integral Ei (principal value on the positive axis, one-sided
limits off the real axis), E1/incomplete gamma on the principal branch, and
the cosine/sine integrals.  The library itself calls ``upper_gamma`` (the
remainder catalogue's exponential-sum antiderivatives, through
``exp_integral_e1``) and the vectorized Ci/Si/Cin kernels (the limiting
characteristic function); the scalar Ei, Ci, Si and Cin entry points serve
the public API only.  The values come from
``scipy.special`` (``sici``, ``exp1``, ``expi``); this module adds the domain
handling, the branch conventions and the error bounds.

Error bound
-----------
Scalar entry points return :class:`EvalResult`, whose ``est_abs_error`` is

    1e-13 * scale + 1e-14    (_REL_ERROR, _ABS_ERROR)

with ``scale = |value|``, except for Gamma(-1, z) = e^{-z}/z - E1(z), whose
recurrence cancels, so that ``scale = |e^{-z}/z| + |E1(z)|``.  The seeded
mpmath sweep in ``tests/test_specfun.py`` (30 digits; E1, Ei and Gamma(-1) at
2000 points with |z| in [1e-3, 50], half of them 1e-8 to 1e-1 rad from the
negative real axis; Ci, Si and Cin at 1400 points in [1e-3, 1e3]) finds no
error above 0.12 of its bound.  The absolute term is needed: a purely
relative bound fails where the value is small (E1 at large |z|, Ci near its
zeros).

Vectorized kernels (`ci_si_values`, `cin_values`) back the quadrature-heavy
callers.  Cin = gamma + log x - Ci cancels for small x, so for x <= 1 it is a
fixed-length power series instead.

Branch convention: principal logarithm everywhere.  On the cut (negative real
axis) E1 takes the limit from above, E1(-x) = -Ei(x) - i*pi; for arguments on
the imaginary axis Ei takes the limit from the upper half-plane, which is the
convention under which Ei(i*tau) = gamma + i*pi/2 + log(tau) + O(tau) holds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .errors import DomainError, PoleError

__all__ = [
    "EvalResult",
    "EULER_GAMMA",
    "exp_integral_ei",
    "exp_integral_e1",
    "cosine_integral",
    "sine_integral",
    "entire_cosine_integral",
    "upper_gamma",
    "ci_si_values",
    "cin_values",
]

EULER_GAMMA = 0.57721566490153286061

_REL_ERROR = 1e-13
_ABS_ERROR = 1e-14

# Cin(x) = sum_{n>=1} (-1)^{n+1} x^{2n} / (2n (2n)!); nine terms leave < 1e-19 at x = 1
_CIN_SERIES = np.array([(-1) ** (n + 1) / (2 * n * math.factorial(2 * n)) for n in range(1, 10)])


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with an absolute-error bound."""

    value: complex
    est_abs_error: float

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag


def _result(value, scale=None) -> EvalResult:
    """``value`` with the module's bound _REL_ERROR * scale + _ABS_ERROR (scale = |value|)."""
    value = complex(value)
    if scale is None:
        scale = abs(value)
    return EvalResult(value, _REL_ERROR * scale + _ABS_ERROR)


# ----------------------------------------------------------------------------
# E1 / incomplete gamma / Ei
# ----------------------------------------------------------------------------


def exp_integral_e1(z: complex) -> EvalResult:
    """Principal-branch exponential integral E1(z) = Gamma(0, z), z != 0.

    For z on the negative real axis (the branch cut) the value is the limit
    from above: E1(-x) = -Ei(x) - i*pi.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("E1 has a logarithmic singularity at z = 0")
    if z.imag == 0.0:  # on the cut, -0.0 would select the limit from below
        z = complex(z.real, 0.0)
    return _result(sp.exp1(z))


def upper_gamma(a: int, z: complex) -> EvalResult:
    """Upper incomplete gamma Gamma(a, z) for a in {0, -1}, principal branch.

    Gamma(0, z) = E1(z); Gamma(-1, z) = e^{-z}/z - E1(z) by the recurrence,
    with a bound scaled by the size of the two terms it cancels.  The check of
    Gamma(-1) that does not go through E1 is the quadrature test
    ``test_gamma_minus1_independent_routes_vs_quadrature``.
    """
    if a not in (0, -1):
        raise DomainError(f"upper_gamma supports a in {{0, -1}}, got {a}")
    z = complex(z)
    if z == 0:
        raise PoleError("Gamma(a, z) diverges at z = 0 for a <= 0")
    e1 = exp_integral_e1(z)
    if a == 0:
        return e1
    lead = cmath.exp(-z) / z
    return _result(lead - e1.value, abs(lead) + abs(e1.value))


def exp_integral_ei(z: complex) -> EvalResult:
    """Exponential integral Ei.

    * real z > 0: principal value of the defining integral;
    * real z < 0: -E1(-z);
    * Im z != 0: analytic continuation -E1(-z) +/- i*pi (sign of Im z);
    * z on the positive imaginary axis inherits the upper-half-plane limit,
      making Ei(i*tau) = gamma + i*pi/2 + log tau + O(tau) hold as tau -> 0+.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("Ei has a logarithmic singularity at z = 0")
    return _result(sp.expi(z.real) if z.imag == 0.0 else sp.expi(z))


# ----------------------------------------------------------------------------
# Ci / Si / Cin (vectorized kernels + scalar wrappers)
# ----------------------------------------------------------------------------


def ci_si_values(x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (Ci(x), Si(x)) for real x > 0 (Ci) / x >= 0 (Si)."""
    si, ci = sp.sici(np.atleast_1d(np.asarray(x, dtype=float)))
    return ci, si


def cin_values(x) -> np.ndarray:
    """Vectorized entire cosine integral Cin(x) = gamma + log x - Ci(x), even in x."""
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.empty_like(x)
    lo = x <= 1.0
    x2 = x[lo] * x[lo]
    out[lo] = x2 * np.polynomial.polynomial.polyval(x2, _CIN_SERIES)
    hi = x[~lo]
    out[~lo] = EULER_GAMMA + np.log(hi) - sp.sici(hi)[1]
    return out


def cosine_integral(lam: float) -> EvalResult:
    """Ci(lam) for lam > 0."""
    lam = float(lam)
    if lam <= 0:
        raise DomainError("cosine_integral requires a positive argument")
    return _result(sp.sici(lam)[1])


def sine_integral(lam: float) -> EvalResult:
    """Si(lam) for real lam (odd function)."""
    lam = float(lam)
    return _result(math.copysign(sp.sici(abs(lam))[0], lam))


def entire_cosine_integral(lam: float) -> EvalResult:
    """Cin(lam) = gamma + log lam - Ci(lam), extended to lam = 0 by Cin(0)=0."""
    return _result(cin_values(lam)[0])
