"""Special-function tests.

Oracles: mpmath (at 30 or more digits) for values and for the error bounds,
since kfree.specfun wraps scipy.special and a SciPy oracle would compare the
library with itself; adaptive quadrature for Gamma(-1, z), the one check that
does not go through E1.  The asymptotic/limit property checks mirror the
identities used by the closed-form antiderivative registry, with their
fitted-constant bars.

Frozen spot values (oracle-derived during development):
  Ei(1)      = 1.8951178163559367555  (mpmath)
  Ci(1)      = 0.3374039229009681347  (mpmath)
  Gamma(0,1) = 0.2193839343955202737  (mpmath; = E1(1))
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from kfree import DomainError, PoleError
from kfree.certify import tail_bound
from kfree.specfun import (
    EULER_GAMMA,
    ci_si_values,
    cin_values,
    cosine_integral,
    entire_cosine_integral,
    exp_integral_e1,
    exp_integral_ei,
    sine_integral,
    upper_gamma,
)

GAMMA = EULER_GAMMA


def _mp(fn, z, dps=30) -> complex:
    """mpmath's ``fn`` at the double ``z``, rounded back to a Python complex."""
    with mp.workdps(dps):
        return complex(fn(mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)))


# ---------------------------------------------------------------- Ci/Si -----


def test_ci_si_against_mpmath_dense():
    x = np.concatenate(
        [
            np.linspace(1e-6, 5, 400),
            np.linspace(5, 16, 150),
            np.linspace(16.01, 200, 300),
            np.geomspace(200, 1e4, 50),
        ]
    )
    ci, si = ci_si_values(x)
    ci_ref = np.array([_mp(mp.ci, v).real for v in x])
    si_ref = np.array([_mp(mp.si, v).real for v in x])
    # machine precision everywhere (these feed the certified example)
    assert_allclose(ci, ci_ref, atol=5e-15, rtol=5e-14)
    assert_allclose(si, si_ref, atol=5e-15, rtol=5e-14)


def test_ci_frozen_value():
    r = cosine_integral(1.0)
    assert abs(r.value - 0.3374039229009681347) < 1e-14
    assert r.est_abs_error < 1e-12


def test_si_limit_pi_half():
    # Si(1e4) -> pi/2 within 2e-4 (1/lambda envelope)
    r = sine_integral(1e4)
    assert abs(r.value - math.pi / 2) < 2e-4


def test_si_odd_and_ci_domain():
    assert sine_integral(-3.0).value == -sine_integral(3.0).value
    assert sine_integral(0.0).value == 0.0
    with pytest.raises(DomainError):
        cosine_integral(-1.0)
    with pytest.raises(DomainError):
        cosine_integral(0.0)


def test_cin_matches_definition_and_zero():
    x = np.array([1e-8, 0.3, 2.0, 10.0, 30.0, 100.0])
    cin = cin_values(x)
    ref = [_mp(lambda t: mp.euler + mp.log(t) - mp.ci(t), v).real for v in x]
    assert_allclose(cin, ref, atol=2e-9, rtol=1e-10)
    assert entire_cosine_integral(0.0).value == 0.0
    # small-argument regularity: Cin(x) ~ x^2/4
    assert abs(cin[0] - (1e-8) ** 2 / 4) < 1e-30


def test_small_tau_combination():
    # i*Ci(tau) - Si(tau) = i*(gamma + log tau) - tau + O(tau^2)
    for tau in [1e-3, 3e-3, 1e-2]:
        ci = cosine_integral(tau).value
        si = sine_integral(tau).value
        lhs = 1j * ci - si
        rhs = 1j * (GAMMA + math.log(tau)) - tau
        assert abs(lhs - rhs) < 5 * tau**2


def test_ci_si_derivatives_fd():
    # d/dx Si = sin x / x, d/dx Ci = cos x / x, centered differences, tol 1e-6
    h = 1e-5
    for x in [0.5, 1.0, 3.0, 10.0, 20.0]:
        dsi = (sine_integral(x + h).value - sine_integral(x - h).value) / (2 * h)
        dci = (cosine_integral(x + h).value - cosine_integral(x - h).value) / (2 * h)
        assert abs(dsi - math.sin(x) / x) < 1e-6
        assert abs(dci - math.cos(x) / x) < 1e-6


# ------------------------------------------------------------------- Ei -----


def test_ei_real_against_mpmath_and_frozen():
    xs = np.array([0.1, 0.5, 1.0, 2.0, 7.9, 8.1, 15.0, 39.9, 40.1, 50.0, 200.0, 700.0])
    for x in xs:
        r = exp_integral_ei(x)
        ref = _mp(mp.ei, float(x))
        assert abs(r.value - ref) <= max(1e-13 * abs(ref), r.est_abs_error), x
    assert abs(exp_integral_ei(1.0).value - 1.8951178163559367555) < 4e-15


def test_ei_negative_real():
    for x in [-0.5, -2.0, -10.0, -30.0]:
        assert abs(exp_integral_ei(x).value - _mp(mp.ei, x)) < 1e-14


def test_ei_complex_halfplane_branches():
    # continuation: -E1(-z) + i*pi (upper), - i*pi (lower); mpmath's ei agrees
    for z in [1 + 2j, -3 + 0.5j, 2j, 0.1 + 8j, -4 - 1j, 3 - 7j, 20j, -0.5 + 0.01j]:
        r = exp_integral_ei(z)
        ref = _mp(mp.ei, complex(z))
        assert abs(r.value - ref) < 1e-12 * max(1.0, abs(ref)), z


def test_ei_imaginary_axis_equals_ci_si_assembly():
    # Ei(i*w) = Ci(w) + i*(pi/2 + Si(w)) for w > 0
    for w in [0.3, 1.0, 5.0, 12.0, 60.0]:
        lhs = exp_integral_ei(1j * w).value
        rhs = cosine_integral(w).value + 1j * (math.pi / 2 + sine_integral(w).value)
        assert abs(lhs - rhs) < 5e-9, w


def test_ei_small_imaginary_argument_fitted_constant():
    # |Ei(i*tau) - (gamma + i*pi/2 + log tau)| <= C*tau with one fitted C < 2
    taus = np.geomspace(1e-6, 1e-2, 25)
    cs = []
    for tau in taus:
        err = abs(exp_integral_ei(1j * tau).value - (GAMMA + 1j * math.pi / 2 + math.log(tau)))
        cs.append(err / tau)
    assert max(cs) < 2.0


def test_ei_large_imaginary_argument_fitted_constant():
    # Ei(i*w) = i*pi - i*e^{iw}/w * (1 + O(1/w)): fitted C < 3 on w in [20, 200]
    ws = np.linspace(20, 200, 37)
    cs = []
    for w in ws:
        lead = 1j * math.pi - 1j * cmath.exp(1j * w) / w
        err = abs(exp_integral_ei(1j * w).value - lead)
        cs.append(err / (abs(cmath.exp(1j * w) / w) / w))
    assert max(cs) < 3.0


def test_ei_real_asymptotic_shape():
    # Ei(50) matches e^w/w*(1 + 1/w) to relative error < 1e-2
    w = 50.0
    lead = math.exp(w) / w * (1 + 1 / w)
    assert abs(exp_integral_ei(w).value - lead) / lead < 1e-2


def test_ei_small_real_argument():
    for tau in [1e-4, 1e-3, 1e-2]:
        assert abs(exp_integral_ei(tau).value - (GAMMA + math.log(tau))) < 2 * tau


def test_ei_derivative_fd_on_imaginary_axis():
    # d/dtau Ei(i*tau) = e^{i*tau}/tau ; centered finite differences, tol 1e-6
    h = 1e-5
    for tau in [0.5, 1.0, 3.0]:
        fd = (exp_integral_ei(1j * (tau + h)).value - exp_integral_ei(1j * (tau - h)).value) / (2 * h)
        assert abs(fd - cmath.exp(1j * tau) / tau) < 1e-6


def test_ei_pole():
    with pytest.raises(PoleError):
        exp_integral_ei(0.0)


# ------------------------------------------------------- incomplete gamma ---


def test_gamma0_matches_mpmath_e1():
    zs = [0.3, 1.0, 4 + 3j, 7.9j, 8.1j, 12 - 5j, 30 + 30j, 0.5 + 0.5j]
    for z in zs:
        r = upper_gamma(0, z)
        ref = _mp(mp.e1, complex(z))
        assert abs(r.value - ref) < 5e-13 * max(1.0, abs(ref)), z


def test_e1_on_the_cut_is_the_limit_from_above():
    # E1(-x) = -Ei(x) - i*pi, whichever sign the zero imaginary part carries
    for x in [0.5, 9.0, 30.0]:
        ref = _mp(mp.e1, complex(-x))
        assert ref.imag == -math.pi
        for z in (-x, complex(-x, 0.0), complex(-x, -0.0)):
            got = exp_integral_e1(z)
            assert abs(got.value - ref) <= got.est_abs_error, z


def test_gamma0_frozen_value():
    assert abs(upper_gamma(0, 1.0).value - 0.2193839343955202737) < 3e-15


def test_gamma_minus1_independent_routes_vs_quadrature():
    # oracle: Gamma(-1, z) = integral_z^inf t^{-2} e^{-t} dt along a ray
    import scipy.integrate as si

    for z in [1.0, 2 + 1j, 5 - 3j]:
        z = complex(z)

        def f(s, z=z):
            t = z + s
            val = cmath.exp(-t) / (t * t)
            return val

        re, _ = si.quad(lambda s: f(s).real, 0, np.inf, limit=400)
        im, _ = si.quad(lambda s: f(s).imag, 0, np.inf, limit=400)
        got = upper_gamma(-1, z).value
        assert abs(got - (re + 1j * im)) < 1e-10, z


def test_gamma_recurrence_residual_grid():
    # |Gamma(-1,z) - e^{-z}/z + Gamma(0,z)| < 1e-10 on 50 points, rays 0, pi/4, pi/2
    radii = np.geomspace(0.5, 50, 17)
    zs = [r * cmath.exp(1j * th) for th in (0.0, math.pi / 4, math.pi / 2) for r in radii]
    assert len(zs) > 50
    worst = 0.0
    for z in zs:
        res = abs(upper_gamma(-1, z).value - cmath.exp(-z) / z + upper_gamma(0, z).value)
        worst = max(worst, res)
    assert worst < 1e-10


def test_gamma0_large_argument_asymptotic():
    # Gamma(0, 40) = e^{-40}*(1/40) within 3% relative
    w = 40.0
    lead = math.exp(-w) / w
    assert abs(upper_gamma(0, w).value - lead) / lead < 0.03


def test_gamma_shift_expansion():
    # Gamma(a, c + z*tau) = Gamma(a, c) - e^{-c} c^{a-1} z tau + O(tau^2)
    c, z = 2.0, 1 - 1j
    for a in (0, -1):
        base = upper_gamma(a, c).value
        for tau in [1e-3, 1e-2]:
            got = upper_gamma(a, c + z * tau).value
            lin = base - math.exp(-c) * c ** (a - 1) * z * tau
            assert abs(got - lin) < 8 * tau**2, (a, tau)


def test_gamma_domain_and_pole():
    with pytest.raises(DomainError):
        upper_gamma(2, 1.0)
    with pytest.raises(PoleError):
        upper_gamma(0, 0.0)


# ------------------------------------------------------------ tail term -----


def test_frozen_tail_constant():
    # (6 e^gamma / sqrt(pi)) * erfc(5^{1/4}) -- frozen 20-digit reference
    assert abs(tail_bound(5.0) - 0.20771652138513808389) < 1e-12


# ------------------------------------------------------- error estimates ----


def test_error_estimates_are_honest_spot_checks():
    import mpmath as mp

    mp.mp.dps = 40
    pairs = [
        (exp_integral_e1(6.0 + 2.0j), mp.e1(mp.mpc(6, 2))),
        (exp_integral_e1(11.0 - 4.0j), mp.e1(mp.mpc(11, -4))),
        (exp_integral_ei(25.0), mp.ei(25)),
        (cosine_integral(15.9), mp.ci(mp.mpf("15.9"))),
        (cosine_integral(16.1), mp.ci(mp.mpf("16.1"))),
        (sine_integral(16.1), mp.si(mp.mpf("16.1"))),
    ]
    for got, ref in pairs:
        ref_c = complex(ref)
        assert abs(got.value - ref_c) <= max(got.est_abs_error, 1e-15 * abs(ref_c))
        assert got.est_abs_error < 1e-6 * max(1.0, abs(ref_c))


def test_error_bounds_hold_on_seeded_mpmath_sweep():
    # |value - mpmath| <= est_abs_error at every point of one seeded sweep:
    # 2000 complex points for E1, Ei and Gamma(-1), |z| log-uniform on
    # [1e-3, 50], half of them 1e-8..1e-1 rad from the negative real axis;
    # 1400 real points for Ci, Si and Cin, Si and Cin with random signs.
    rng = np.random.default_rng(20261018)
    n = 2000
    r = 10.0 ** rng.uniform(-3.0, math.log10(50.0), n)
    near_cut = rng.random(n) < 0.5
    gap = 10.0 ** rng.uniform(-8.0, -1.0, n)
    theta = np.where(near_cut, rng.choice([-1.0, 1.0], n) * (math.pi - gap), rng.uniform(-math.pi, math.pi, n))
    zs = r * np.exp(1j * theta)
    assert np.mean(near_cut) >= 0.4
    xs = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 700), rng.uniform(1e-3, 30.0, 700)])
    signs = rng.choice([-1.0, 1.0], xs.size)

    violations = []

    def check(name, arg, got, ref):
        if not abs(got.value - complex(ref)) <= got.est_abs_error:
            violations.append((name, arg, abs(got.value - complex(ref)), got.est_abs_error))

    with mp.workdps(30):
        for z in zs:
            zm = mp.mpc(z.real, z.imag)
            e1 = mp.e1(zm)
            check("E1", z, exp_integral_e1(z), e1)
            check("Gamma(-1)", z, upper_gamma(-1, z), mp.exp(-zm) / zm - e1)
            check("Ei", z, exp_integral_ei(z), mp.ei(zm))
        for x, sign in zip(xs, signs):
            xm = mp.mpf(x)
            ci = mp.ci(xm)
            check("Ci", x, cosine_integral(x), ci)
            check("Si", sign * x, sine_integral(sign * x), sign * mp.si(xm))
            check("Cin", sign * x, entire_cosine_integral(sign * x), mp.euler + mp.log(xm) - ci)
    assert not violations, violations[:5]
