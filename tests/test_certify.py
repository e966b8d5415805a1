"""Tests for the certified lower-bound chain.

Oracles: frozen high-precision targets for the midpoint sum, curvature step
bound, and tail term; an independent evaluation of the limiting
characteristic function's real part through the generic complex-exponential
route; and direct adaptive quadrature of the transform, both for the
integrand (whose G comes from the cached Gauss rule) and for the
stationary-phase envelope comparison.
"""

import math

import numpy as np
import pytest

from kfree.certify import (
    IMAGINARY_MARGIN,
    TARGET,
    ExampleReport,
    _uniform_grid,
    integrand_F,
    reproduce_example,
    second_derivative_max,
    tail_bound,
)
from kfree.dickman import charfn_limit, charfn_limit_grid
from kfree.errors import DomainError
from kfree.smoothsum import get_cutoff
from kfree.specfun import EULER_GAMMA, ci_si_values
from oracles import fourier_transform, stationary_phase_amplitude

# frozen targets for r = 5, M = 1000 (binary64 reproduction)
MIDPOINT_TARGET = 0.23821680383626264857
TAIL_TARGET = 0.20771652138513808389
STEP_BOUND_TARGET = 5.2083e-6

# integral of e^{-1/(1-u^2)} over [-1, 1], frozen at 30-digit precision
BUMP_MASS = 0.443993816168079437823


class TestIntegrand:
    def test_even_symmetry(self):
        for lam in (0.3, 1.1, 2.6, 4.9):
            assert integrand_F(-lam) == integrand_F(lam)

    def test_matches_adaptive_transform(self):
        # independent route: G = 2pi fhat by adaptive quadrature of the profile
        bump = get_cutoff("bump")
        for lam in (0.3, 1.1, 2.6, 4.9):
            oracle = 2.0 * math.pi * fourier_transform(bump, lam, tol=1e-10).real
            assert abs(integrand_F(lam) - oracle * charfn_limit(-1.0, lam).real) <= 1e-9

    @pytest.mark.parametrize("h,count,shift", [(1e-3, 5001, 0.0), (5e-3, 1000, 0.5)])
    def test_uniform_panel_grid_matches_its_plain_nodes(self, h, count, shift):
        # the chain's curvature nodes and midpoints: factored phases against
        # the same nodes passed as a plain array
        grid = _uniform_grid(h, count, shift)
        points = np.asarray(grid)[:count]
        np.testing.assert_allclose(points, h * (np.arange(count) + shift), rtol=1e-15, atol=0)
        assert np.max(np.abs(integrand_F(grid)[:count] - integrand_F(points))) <= 2e-15

    def test_array_calls_match_scalar_calls(self):
        lams = np.array([0.0, 0.3, -0.3, 1.1, 2.6, -4.9, 13.4])
        limit = charfn_limit_grid(-1.0, lams).real
        assert np.array_equal(limit, [charfn_limit(-1.0, float(l)).real for l in lams])
        values = integrand_F(lams)
        assert all(integrand_F(float(l)) == integrand_F(np.array([l]))[0] for l in lams)
        # one node and several take the same gemm, so the same Gauss sum in the same order
        assert np.array_equal(values, [integrand_F(float(l)) for l in lams])

    def test_value_at_zero_is_profile_mass(self):
        assert integrand_F(0.0) == pytest.approx(BUMP_MASS, abs=1e-12)

    def test_limit_factor_at_zero(self):
        assert charfn_limit(-1.0, 0.0).real == 1.0

    def test_limit_factor_matches_generic_evaluator(self):
        # independent route: the explicit form e^{gamma - Ci} * lam * cos(Si)
        for lam in (0.5, 2.0, 7.0, 13.4):
            ci, si = (float(x[0]) for x in ci_si_values(lam))
            explicit = math.exp(EULER_GAMMA - ci) * lam * math.cos(si)
            generic = charfn_limit(-1.0, lam).real
            assert explicit == pytest.approx(generic, abs=1e-12)

    def test_limit_factor_frozen_value(self):
        assert charfn_limit(-1.0, 2.0).real == pytest.approx(
            -0.0807628490156368, abs=1e-13
        )

    def test_limit_factor_bounded_by_exp_gamma(self):
        grid = np.linspace(0.0, 60.0, 601)
        vals = [abs(charfn_limit(-1.0, float(l)).real) for l in grid]
        assert max(vals) <= math.exp(EULER_GAMMA) + 1e-12

    def test_second_derivative_within_half(self):
        assert second_derivative_max(5.0) < 0.5

    def test_second_derivative_requires_positive_range(self):
        with pytest.raises(DomainError):
            second_derivative_max(0.0)
        for step in (0.0, -1e-3, 3.0):
            with pytest.raises(DomainError):
                second_derivative_max(5.0, step)


@pytest.fixture(scope="module")
def report() -> ExampleReport:
    return reproduce_example()


class TestReproduceExample:
    def test_defaults(self, report):
        assert (report.r, report.M) == (5.0, 1000)
        assert report.h == 0.005

    def test_midpoint_sum_frozen(self, report):
        assert report.midpoint_sum == pytest.approx(MIDPOINT_TARGET, abs=1e-9)

    def test_curvature_step_bound_frozen(self, report):
        assert report.curvature_step_bound == pytest.approx(
            STEP_BOUND_TARGET, abs=1e-10
        )

    def test_tail_frozen(self, report):
        assert report.tail == pytest.approx(TAIL_TARGET, abs=1e-9)

    def test_error_forms_consistent(self, report):
        assert report.half_curvature_bound == 0.5 * report.curvature_step_bound
        assert report.measured_error_envelope == (
            report.curvature_step_bound * report.second_derivative_max
        )
        assert report.measured_error_envelope <= report.half_curvature_bound

    def test_final_chain(self, report):
        chain = abs(report.midpoint_sum) - report.curvature_step_bound - report.tail
        assert report.lower_bound == chain
        assert report.threshold == TARGET + IMAGINARY_MARGIN
        assert report.lower_bound >= report.threshold
        assert report.passed

    def test_midpoint_stable_under_doubling(self, report):
        # single-sided sums: halving the step shrinks the curvature error by
        # ~4, so the drift obeys the (1/2)*(1 - 1/4) envelope
        doubled = reproduce_example(r=5.0, M=2000)
        drift = abs(report.midpoint_sum / 2.0 - doubled.midpoint_sum / 2.0)
        envelope = report.curvature_step_bound * 0.5 * (1.0 - 0.25)
        assert drift <= envelope

    def test_tail_decreasing_in_r(self):
        tails = [tail_bound(r) for r in (3.0, 5.0, 8.0)]
        assert tails[0] > tails[1] > tails[2]

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            reproduce_example(r=-1.0)
        with pytest.raises(DomainError):
            reproduce_example(M=0)
        with pytest.raises(DomainError):
            tail_bound(0.0)


class TestStationaryPhase:
    def test_amplitude_coefficient(self):
        coeff = math.exp(-0.25) / (math.sqrt(math.pi) * 2.0**0.25)
        lam = 37.0
        expected = coeff * lam**-0.75 * math.exp(-math.sqrt(lam))
        assert stationary_phase_amplitude(lam) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            stationary_phase_amplitude(0.0)

    def test_peak_envelope_within_factor_two(self):
        # per oscillation window (~2pi wide) the peak of |fhat| should track
        # the saddle-point modulus; phases are not compared
        f = get_cutoff("bump")
        centers = np.arange(20.0 + math.pi, 100.0, 2.0 * math.pi)
        for c in centers:
            lams = np.linspace(c - math.pi, c + math.pi, 257)
            peak = float(np.max(np.abs(f.transform_grid(lams))))
            amp = stationary_phase_amplitude(float(c))
            assert 0.5 * amp <= peak <= 2.0 * amp
