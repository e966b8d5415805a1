"""Shared quadrature helpers, all on one composite Gauss-Legendre family.

* :func:`gauss_panels` builds a composite Gauss-Legendre :class:`PanelGrid`
  so that vectorized integrand evaluators (prime products, cached transforms)
  can be applied to the whole grid at once and reduced with its weights;
* :func:`complex_quad` integrates a scalar complex integrand on those panels,
  doubling their number until two levels agree, with a tolerance check;
* :func:`gemm` is the grids' matrix product, whose entries ignore the batch.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import SizeCapError, ToleranceError

__all__ = ["NODE_CAP", "PanelGrid", "complex_quad", "gauss_panels", "gemm"]

#: most nodes any kfree grid may hold (32 MiB per float array); larger ones raise SizeCapError
NODE_CAP = 1 << 22


def complex_quad(func, a, b, tol: float = 1e-10, limit: int = 400):
    """Integral of a complex integrand over [a, b] on 1, 2, 4, ... panels of 16 Gauss nodes.

    ``func`` is called once per node.  Panels double until two levels agree
    within ``tol * max(1, |I|)`` or 2n would pass ``limit``; returns the finer
    level and their gap as ``(value, error)``, and raises
    :class:`ToleranceError` when the error exceeds ``50 * tol``.
    """
    previous, n = None, 1
    while True:
        grid = gauss_panels(a, b, n)
        values = np.array([func(x) for x in grid.points.tolist()], dtype=complex)
        value = complex(np.sum(grid.weights * values))
        if previous is not None:
            err = abs(value - previous)
            if err <= tol * max(1.0, abs(value)) or 2 * n > limit:
                break
        previous, n = value, 2 * n
    if not err <= 50 * tol:  # a NaN gap fails too
        raise ToleranceError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}"
        )
    return value, float(err)


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of complex 2-d arrays by the matrix product, whose rows do not depend on each other.

    A lone row of a or column of b would take numpy's dot or matrix-vector
    path, which sums the terms unlike the matrix product, so it is repeated
    to two and the product sliced back: a row is then rounded as in any larger
    product with the same b, a column as in a two-column one.  Every other
    product is a @ b.  (Real products differ: dgemm sums a row by its place.)
    """
    rows, cols = a.shape[0], b.shape[1]
    if rows > 1 and cols > 1:
        return a @ b
    return ((np.repeat(a, 2, 0) if rows == 1 else a) @ (np.repeat(b, 2, 1) if cols == 1 else b))[:rows, :cols]


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^{i*theta} from one cos and one sin pass written into a complex array."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


class PanelGrid:
    """Nodes lam = m + t, every panel centre m plus each offset t, centre by centre in ``points``.

    It reads as its node array (``np.asarray(grid)``, ``grid.size``); its phases e^{i m v} e^{i t v}
    cost a (centres, len(v)) and an (offsets, len(v)) cos/sin pass, not a (nodes, len(v)) one.
    :meth:`of` reads plain nodes as centres with the one offset 0, whose factor is exactly 1 + 0j.
    """

    def __init__(self, centres, offsets, weights=None):
        self.centres = np.atleast_1d(np.asarray(centres, dtype=float)).ravel()
        self.offsets = np.asarray(offsets, dtype=float)
        self.weights = weights
        self.points = (self.centres[:, None] + self.offsets).ravel()
        self.size = self.points.size

    @classmethod
    def of(cls, lams) -> "PanelGrid":
        return lams if isinstance(lams, cls) else cls(lams, np.zeros(1))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)

    def offset_phases(self, v: np.ndarray) -> np.ndarray:
        """e^{i t v}, one row per offset t."""
        return _cis(np.outer(self.offsets, v))

    def centre_phases(self, v: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """e^{i m v}, one row per centre m of centres[lo:hi]."""
        return _cis(np.outer(self.centres[lo:hi], v))


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    return leggauss(nodes)


def gauss_panels(a: float, b: float, n_panels: int, nodes: int = 16) -> PanelGrid:
    """Composite Gauss-Legendre grid on [a, b] with its weights.

    The grid integrates polynomials of degree 2*nodes - 1 exactly on each of
    the ``n_panels`` equal panels; callers evaluate their integrand on the
    grid in one vectorized pass and reduce with ``weights``.  Centres count
    from the midpoint of [a, b], so [-R, R] gives exactly symmetric nodes.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    if n_panels * nodes > NODE_CAP:
        raise SizeCapError(f"{n_panels} panels of {nodes} nodes exceed the {NODE_CAP}-node grid cap")
    xg, wg = _leggauss(int(nodes))
    half = 0.5 * (float(b) - float(a)) / n_panels
    centres = 0.5 * (float(a) + float(b)) + (2 * np.arange(n_panels) - (n_panels - 1)) * half
    return PanelGrid(centres, half * xg, np.tile(half * wg, n_panels))
