"""Certified lower bound for the truncated bump/limit-function integral.

The target is a lower bound for the modulus of the truncated frequency
integral of the bump cutoff against the alpha = -1 limiting characteristic
function.  The head term integrates

    F(lam) = G(lam) * Re phi_limit(-1)(lam),
    G(lam) = integral over [-1, 1] of f(u) cos(lam*u) du,
    Re phi_limit(-1)(lam) = e^{gamma - Ci(lam)} * lam * cos(Si(lam)),

by the composite midpoint rule on [0, r] (doubled by evenness; the limit
factor is the real part of ``dickman.charfn_limit_grid``), with the
curvature envelope r*h^2/24 * max|F''| and |F''| <= 1/2 re-verified
numerically.  G is 2pi times ``smoothsum.bump_transform``, the cached Gauss
rule of the spectral route, and every step evaluates whole arrays: the
midpoints and the curvature nodes go to it as uniform panel grids.  Note the
normalization split, which the frozen report targets pin down: the head
uses the plain cosine transform G (no 1/(2pi)), while the tail term keeps
the envelope stated for the frequency-normalized transform G/(2pi) --
|G/(2pi)| <= (3/2pi) e^{-sqrt(lam)} lam^{-3/4} -- integrated against
|Re phi_limit(-1)| <= e^gamma, giving (6 e^gamma / sqrt(pi)) *
erfc(r^{1/4}).  The final chain must clear 3/100 plus a 1/2500 allowance
for the imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import NODE_CAP, PanelGrid
from .dickman import charfn_limit_grid
from .errors import DomainError, SizeCapError
from .smoothsum import bump_transform
from .specfun import EULER_GAMMA

__all__ = [
    "ExampleReport",
    "integrand_F",
    "reproduce_example",
    "second_derivative_max",
    "tail_bound",
]

#: allowance for the imaginary part of the truncated integral (it vanishes
#: in the large-N limit; this fixed budget covers finite N)
IMAGINARY_MARGIN = 1.0 / 2500.0

#: the certified threshold the lower bound must clear
TARGET = 3.0 / 100.0


#: offsets per panel of the uniform grids handed to ``bump_transform``
_OFFSETS = 64


def _uniform_grid(h: float, count: int, shift: float = 0.0) -> PanelGrid:
    """The nodes h*(j + shift) for j = 0, 1, ... in panels of ``_OFFSETS``.

    The last panel runs past j = count - 1; callers keep the first ``count``
    values.  The bump transform then pays (panels + _OFFSETS) phase rows
    instead of one per node.  More than ``NODE_CAP`` values raise :class:`SizeCapError`.
    """
    if count > NODE_CAP:
        raise SizeCapError(f"{count} uniform nodes exceed the {NODE_CAP}-node grid cap")
    return PanelGrid(h * np.arange(0, count, _OFFSETS), h * (np.arange(_OFFSETS) + shift))


def integrand_F(lam):
    """F(lam) = G(lam) * Re phi_limit(-1)(lam) on a scalar, an array or a PanelGrid; even in lam.

    At lam = 0 this is G(0), the total mass of the bump profile.
    """
    values = 2.0 * math.pi * bump_transform(lam).real * charfn_limit_grid(-1.0, lam).real
    return values if np.ndim(lam) else float(values[0])


def second_derivative_max(r: float, step: float = 1e-3) -> float:
    """max |F''| over [0, r] by second differences on a uniform grid.

    The curvature bound feeding the midpoint-rule envelope is re-measured
    rather than assumed; evenness supplies the one-sided stencil at 0.
    """
    if not 0.0 < step <= 0.5 * r:
        raise DomainError("second_derivative_max requires r > 0 and 0 < step <= r/2")
    n = int(round(r / step))
    vals = integrand_F(_uniform_grid(step, n + 1))[: n + 1]
    interior = np.abs(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / step**2
    at_zero = abs(2.0 * (vals[1] - vals[0])) / step**2
    return float(max(np.max(interior), at_zero))


def tail_bound(r: float) -> float:
    """(6 e^gamma / sqrt(pi)) * erfc(r^{1/4}): the |lam| > r remainder term.

    Closed form of 2 * e^gamma * integral over lam > r of the
    frequency-normalized envelope (3/2pi) e^{-sqrt(lam)} lam^{-3/4}; the
    chain pairs it with the plain-transform head (see the module note on
    the normalization split).
    """
    if r <= 0.0:
        raise DomainError("tail_bound requires r > 0")
    return 6.0 * math.exp(EULER_GAMMA) / math.sqrt(math.pi) * math.erfc(r**0.25)


@dataclass(frozen=True)
class ExampleReport:
    """Everything in the certification chain for one (r, M) choice.

    ``lower_bound`` = |midpoint_sum| - curvature_step_bound - tail; the
    subtracted curvature term is the unit-curvature envelope r*h^2/24,
    which dominates both the measured envelope (times max|F''|) and the
    half-curvature form (times 1/2), so the chain is conservative.
    """

    r: float
    M: int
    h: float
    midpoint_sum: float
    second_derivative_max: float
    curvature_step_bound: float
    measured_error_envelope: float
    half_curvature_bound: float
    tail: float
    lower_bound: float
    margin: float
    threshold: float
    passed: bool


def reproduce_example(r: float = 5.0, M: int = 1000) -> ExampleReport:
    """Run the full certification chain with midpoint quadrature on [0, r].

    The midpoint sum is reported in its doubled form 2h * sum_{m=1}^M
    F(h(m - 1/2)) covering |lam| <= r by evenness.
    """
    r = float(r)
    if r <= 0.0:
        raise DomainError("reproduce_example requires r > 0")
    if int(M) < 1:
        raise DomainError("reproduce_example requires M >= 1")
    M = int(M)
    h = r / M
    midpoint_sum = 2.0 * h * math.fsum(integrand_F(_uniform_grid(h, M, 0.5))[:M])
    fpp_max = second_derivative_max(r)
    step_bound = h * h * r / 24.0
    tail = tail_bound(r)
    lower = abs(midpoint_sum) - step_bound - tail
    threshold = TARGET + IMAGINARY_MARGIN
    return ExampleReport(
        r=r,
        M=M,
        h=h,
        midpoint_sum=midpoint_sum,
        second_derivative_max=fpp_max,
        curvature_step_bound=step_bound,
        measured_error_envelope=step_bound * fpp_max,
        half_curvature_bound=0.5 * step_bound,
        tail=tail,
        lower_bound=lower,
        margin=IMAGINARY_MARGIN,
        threshold=threshold,
        passed=bool(lower >= threshold),
    )
