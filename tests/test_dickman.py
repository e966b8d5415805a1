"""Tests for the density family, the plateau constant, and the limiting charfn.

Independent oracles used here:
* analytic solution 1 - ln(u) on [1, 2] for alpha = 1 (integrate the delay
  ODE by hand starting from the unit plateau);
* frozen multiprecision values of the classical density at integer points,
  produced by an exact piecewise Taylor continuation of rho'(u) = -rho(u-1)/u
  (a completely different discretization from the shipped marcher);
* the half-line integral of the classical density, e^gamma;
* scipy quadrature of the density transform versus the closed-form
  characteristic function.
"""

import math

import numpy as np
import pytest

from kfree import dickman, specfun
from kfree.errors import DomainError
from oracles import charfn_fourier_from_grid, grid_integral

GAMMA = specfun.EULER_GAMMA

# multiprecision Taylor-continuation oracle (40 digits, 160 terms/piece)
RHO1_AT_3 = 0.04860838829113156690718304
RHO1_AT_10 = 2.770171837725958988758121e-11
RHO1_AT_12 = 1.419713165017938934884595e-14


# ---------------------------------------------------------------------------
# plateau constant
# ---------------------------------------------------------------------------


def test_h_constant_alpha_one_is_exactly_one():
    assert dickman.h_constant(1.0) == 1.0


def test_h_constant_finite_positive():
    v = dickman.h_constant(1.5)
    assert math.isfinite(v) and v > 0


def test_h_constant_euler_product_oracle():
    # direct product over p <= 10^5 in plain arithmetic, then bracket the
    # tail: the omitted factors multiply by exp(T) with
    # T = sum_{p>P} [(a^2-a)/2p^2 + O(p^-3)] and 0 < T < (a^2-a)/2 * 2/P
    alpha = 1.5
    from kfree.primes import sieve_primes

    p = sieve_primes(10**5).primes.astype(float)
    prod = float(np.prod((1 - 1 / p) ** alpha / (1 - alpha / p)))
    low = prod / math.gamma(alpha)
    high = low * math.exp((alpha * alpha - alpha) * 1.0 / 10**5)
    v = dickman.h_constant(alpha)
    assert low * (1 - 1e-9) <= v <= high * (1 + 1e-9)


def test_h_constant_domain():
    with pytest.raises(DomainError):
        dickman.h_constant(2.5)
    with pytest.raises(DomainError):
        dickman.h_constant(-0.5)
    with pytest.raises(DomainError):
        dickman.h_constant(0.5 + 0.5j)


# ---------------------------------------------------------------------------
# delay-ODE solution
# ---------------------------------------------------------------------------


def test_rho_plateau_and_point_values(rho_grid_1):
    g = rho_grid_1
    m = int(round(1 / g.step))
    assert np.all(g.values[: m + 1] == g.a0)
    assert g.a0 == 1.0
    # analytic 1 - ln(u) on [1, 2]
    u = g.u[m : 2 * m + 1]
    assert np.max(np.abs(g.values[m : 2 * m + 1] - (1 - np.log(u)))) < 1e-6
    # the marcher actually achieves far better than the contract asks
    assert np.max(np.abs(g.values[m : 2 * m + 1] - (1 - np.log(u)))) < 1e-12


def test_rho_at_interpolation(rho_grid_1):
    # off-node evaluation against the analytic branch
    us = np.array([1.1234567, 1.5, 1.987654])
    got = dickman.rho_at(rho_grid_1, us)
    assert np.max(np.abs(got - (1 - np.log(us)))) < 1e-11
    assert dickman.rho_at(rho_grid_1, 0.5)[0] == 1.0


def test_rho_frozen_deep_values(rho_grid_1):
    g = rho_grid_1
    m = int(round(1 / g.step))
    assert abs(g.values[3 * m] - RHO1_AT_3) < 1e-12
    assert abs(g.values[10 * m] - RHO1_AT_10) < 5e-14
    assert g.values[10 * m] < 1e-10  # rapid-decay contract
    assert abs(g.values[12 * m] - RHO1_AT_12) < 5e-14


def test_rho_halfline_integral_is_exp_gamma(rho_grid_1):
    total = grid_integral(rho_grid_1, rho_grid_1.values)
    assert abs(total - math.exp(GAMMA)) < 1e-9


def test_rho_grid_invariants(rho_grid_1, rho_grid_15):
    for g in (rho_grid_1, rho_grid_15):
        m = int(round(1 / g.step))
        assert np.all(g.values >= 0)
        assert np.all(np.diff(g.values[m:]) <= 0)  # non-increasing past the plateau
        assert not g.values.flags.writeable


def test_rho_step_refinement(rho_grid_1):
    fine = dickman.solve_rho(1.0, u_max=4.0, step=5e-4)
    m_c = int(round(1 / rho_grid_1.step))
    m_f = int(round(1 / fine.step))
    coarse_vals = rho_grid_1.values[[2 * m_c, 3 * m_c, 4 * m_c]]
    fine_vals = fine.values[[2 * m_f, 3 * m_f, 4 * m_f]]
    assert np.max(np.abs(coarse_vals - fine_vals)) < 1e-12


def test_solve_rho_domain_errors():
    with pytest.raises(DomainError):
        dickman.solve_rho(-1.0)
    with pytest.raises(DomainError):
        dickman.solve_rho(1 + 1j)
    with pytest.raises(DomainError):
        dickman.solve_rho(1.0, step=2e-3)  # too coarse
    with pytest.raises(DomainError):
        dickman.solve_rho(1.0, step=3e-4)  # does not divide the unit delay
    for step in (0.0, -1e-3, math.nan):
        with pytest.raises(DomainError):
            dickman.solve_rho(1.0, step=step)
    for u_max in (0.5, math.nan):
        with pytest.raises(DomainError):
            dickman.solve_rho(1.0, u_max=u_max)


# ---------------------------------------------------------------------------
# normalized density
# ---------------------------------------------------------------------------


def test_w_density_point_values(rho_grid_1):
    assert dickman.w_density(rho_grid_1, -1.0) == 0.0
    v = dickman.w_density(rho_grid_1, 1.5)
    assert abs(v - math.exp(-GAMMA) * (1 - math.log(1.5))) < 1e-12
    with pytest.raises(DomainError):
        dickman.w_density(rho_grid_1, rho_grid_1.u_max + 1.0)


@pytest.mark.parametrize("alpha,at_zero", [(0.5, math.inf), (1.0, math.exp(-GAMMA)), (1.5, 0.0)])
def test_w_density_arrays_match_scalars(alpha, at_zero):
    # one rule at u = 0 for scalars and arrays: the limit value, inf below alpha = 1
    grid = dickman.solve_rho(alpha, u_max=3.0)
    us = np.array([-1.0, 0.0, 0.5, 1.5, 2.999])
    w = dickman.w_density(grid, us)
    assert np.array_equal(w, [dickman.w_density(grid, float(u)) for u in us])
    assert w[0] == 0.0
    assert w[1] == pytest.approx(at_zero, rel=1e-15)


def test_w_integral_alpha_one(rho_grid_1):
    assert abs(dickman.w_integral(rho_grid_1) - 1.0) < 1e-6
    assert abs(dickman.w_integral(rho_grid_1) - 1.0) < 1e-12


def test_w_integral_alpha_three_halves(rho_grid_15):
    assert abs(dickman.w_integral(rho_grid_15) - 1.0) < 1e-3
    assert abs(dickman.w_integral(rho_grid_15) - 1.0) < 1e-8


@pytest.mark.parametrize("alpha", [0.6, 1.2, 1.9])
def test_w_integral_other_alphas(alpha):
    g = dickman.solve_rho(alpha, u_max=12.0)
    assert abs(dickman.w_integral(g) - 1.0) < 1e-5


# ---------------------------------------------------------------------------
# limiting characteristic function
# ---------------------------------------------------------------------------


def test_charfn_limit_at_zero_exact():
    assert dickman.charfn_limit(1.0, 0.0) == 1.0 + 0.0j
    assert dickman.charfn_limit(2j / 3, 0.0) == 1.0 + 0.0j
    assert dickman.charfn_limit_grid(1 + 1j, [0.0])[0] == 1.0 + 0.0j


def test_charfn_limit_closed_form_alpha_minus_one():
    # real part at lambda = 2 equals e^{gamma - Ci(2)} * 2 * cos(Si(2))
    lam = 2.0
    ci, si = (float(x[0]) for x in specfun.ci_si_values(np.array([lam])))
    expected = math.exp(GAMMA - ci) * lam * math.cos(si)
    got = dickman.charfn_limit(-1.0, lam).real
    assert abs(got - expected) < 1e-14
    # frozen 30-digit reference for the same quantity
    assert abs(got - (-0.08076284901563676512206)) < 1e-15


def test_charfn_limit_asymptotic_decay():
    lam = 1e4
    target = 1j * math.exp(-GAMMA)
    assert abs(lam * dickman.charfn_limit(1.0, lam) - target) < 1e-3


def test_charfn_conjugation_symmetry():
    lams = [0.3, 1.7, 9.0]
    for alpha in (1.0, -1.0, 0.5 + 0.5j, 2j / 3):
        for lam in lams:
            lhs = dickman.charfn_limit(alpha, -lam)
            rhs = np.conj(dickman.charfn_limit(np.conj(alpha), lam))
            assert abs(lhs - rhs) < 1e-15


def test_charfn_power_identity():
    # exp(alpha*g) equals the principal power (phi^(1))^alpha because
    # |Im g| = Si(|lam|) < pi keeps g on the principal branch
    lams = np.array([0.5, 2.0, 7.0, 40.0])
    base = dickman.charfn_limit_grid(1.0, lams)
    for alpha in (1.5, -1.0, 1 + 1j, 2j / 3):
        direct = dickman.charfn_limit_grid(alpha, lams)
        powered = np.exp(complex(alpha) * np.log(base))
        assert np.max(np.abs(direct - powered)) < 1e-13


def test_charfn_modulus_decay_bounded():
    lams = np.geomspace(10.0, 1e4, 2001)
    for alpha in (1.0, -1.0, 0.5 + 0.5j):
        vals = dickman.charfn_limit_grid(alpha, lams)
        scaled = lams ** np.real(alpha) * np.abs(vals)
        assert np.max(scaled) < 3.0  # fitted constant: observed sup < 2


def test_charfn_real_part_alpha_minus_one_bounded():
    lams = np.linspace(1e-3, 200.0, 40001)
    vals = dickman.charfn_limit_grid(-1.0, lams)
    assert np.max(np.abs(vals.real)) <= math.exp(GAMMA) * (1 + 1e-12)


def test_fourier_consistency(rho_grid_1, rho_grid_15):
    lams = np.array([0.5, 1.0, 2.0, 5.0])
    for g in (rho_grid_1, rho_grid_15):
        closed = dickman.charfn_limit_grid(g.alpha, lams)
        quad = charfn_fourier_from_grid(g, lams)
        assert np.max(np.abs(closed - quad)) < 1e-4
        assert np.max(np.abs(closed - quad)) < 1e-8


def test_fourier_consistency_against_scipy_quad(rho_grid_1):
    # independent quadrature route on the same density
    from scipy.integrate import quad

    lam = 2.0
    w = lambda u: dickman.w_density(rho_grid_1, u)
    re = quad(lambda u: w(u) * math.cos(lam * u), 0, rho_grid_1.u_max, limit=200)[0]
    im = quad(lambda u: w(u) * math.sin(lam * u), 0, rho_grid_1.u_max, limit=200)[0]
    closed = dickman.charfn_limit(1.0, lam)
    assert abs(complex(re, im) - closed) < 1e-7
