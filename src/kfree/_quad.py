"""Shared quadrature helpers.

Two styles serve the package:

* :func:`complex_quad` wraps ``scipy.integrate.quad`` for complex-valued
  integrands with an aggregated error estimate and a tolerance check;
* :func:`gauss_panels` builds composite Gauss-Legendre node/weight grids so
  that vectorized integrand evaluators (prime products, cached transforms)
  can be applied to the whole grid at once and reduced with a dot product.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import ToleranceError

__all__ = ["complex_quad", "gauss_panels"]


def complex_quad(func, a, b, tol: float = 1e-10, limit: int = 400):
    """Adaptive quadrature of a complex integrand over [a, b].

    Integrates the real and imaginary parts separately and returns
    ``(value, error)`` with the two error estimates summed.  Raises
    :class:`ToleranceError` when the reported error exceeds ``50 * tol``,
    which is how non-convergence surfaces from the adaptive routine.
    """
    re, re_err = quad(lambda x: func(x).real, a, b, epsabs=tol, epsrel=tol, limit=limit)
    im, im_err = quad(lambda x: func(x).imag, a, b, epsabs=tol, epsrel=tol, limit=limit)
    err = re_err + im_err
    if err > 50 * tol:
        raise ToleranceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}"
        )
    return complex(re, im), float(err)


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    x, w = leggauss(nodes)
    return x, w


def gauss_panels(a: float, b: float, n_panels: int, nodes: int = 16):
    """Composite Gauss-Legendre grid on [a, b]: returns (points, weights).

    The grid integrates polynomials of degree 2*nodes - 1 exactly on each of
    the ``n_panels`` equal panels; callers evaluate their integrand on
    ``points`` in one vectorized pass and reduce with ``weights``.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    xg, wg = _leggauss(int(nodes))
    edges = np.linspace(float(a), float(b), n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    points = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return points, weights

