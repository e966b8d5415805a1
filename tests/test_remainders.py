"""Tests for the remainder catalogue: the eleven catalogued antiderivatives,
the leading integral and its limit, the boundary terms of the summation by
parts, and the envelope scans with their model fits."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from kfree import EnsembleConfig
from kfree._quad import complex_quad
from kfree.ensemble import threshold_prime
from kfree.errors import DomainError
from kfree.primes import prime_count
from kfree.remainders import (
    antiderivative_case,
    antiderivative_names,
    bound_scan,
    limit_deviation_scan,
    main_term_J111,
)
from kfree.specfun import EULER_GAMMA
from oracles import boundary_terms, main_term_limit, verify_antiderivative

# classical table values, frozen independently of the library's own series
CI_AT_1 = 0.33740392290096813466
SI_AT_1 = 0.94608307036718301494

# the eleven catalogued triples, generic families instantiated at j = 3
ALL_TRIPLES = [
    (2, 1, 1),
    (1, 1, 3),
    (1, 2, 3),
    (1, 3, 3),
    (1, 2, 1),
    (2, 1, 3),
    (2, 2, 3),
    (2, 3, 3),
    (1, 3, 1),
    (2, 2, 1),
    (2, 3, 1),
]


class TestCatalogue:
    def test_eleven_family_names(self):
        names = antiderivative_names()
        assert len(names) == 11
        assert len(set(names)) == 11
        assert "antideriv-2-1-1" in names
        assert "antideriv-1-1-j" in names

    def test_lookup_covers_every_family(self):
        seen = set()
        for triple in ALL_TRIPLES:
            case = antiderivative_case(triple, 0.01)
            assert case.indices == triple
            assert case.eps == 0.01
            seen.add(case.name)
        assert seen == set(antiderivative_names())

    def test_generic_family_keeps_placeholder_name(self):
        case = antiderivative_case((1, 1, 5), 0.01)
        assert case.name == "antideriv-1-1-j"
        assert case.indices == (1, 1, 5)

    def test_main_term_triple_is_not_catalogued(self):
        with pytest.raises(KeyError, match="main_term_J111"):
            antiderivative_case((1, 1, 1), 0.01)

    def test_explicit_eps_terms_are_not_catalogued(self):
        with pytest.raises(KeyError, match="bound_scan"):
            antiderivative_case((1, 2, 2), 0.01)
        with pytest.raises(KeyError, match="bound_scan"):
            antiderivative_case((2, 3, 2), 0.01)

    def test_unknown_triples_raise_lookup_errors(self):
        with pytest.raises(KeyError):
            antiderivative_case((3, 1, 1), 0.01)
        with pytest.raises(KeyError):
            antiderivative_case((1, 4, 5), 0.01)

    def test_bad_arguments_raise_domain_errors(self):
        with pytest.raises(DomainError):
            antiderivative_case((2, 1, 1), -0.01)
        with pytest.raises(DomainError):
            antiderivative_case("abc", 0.01)

    def test_irregularity_notes_are_recorded(self):
        assert "(2,2,1)" in antiderivative_case((2, 3, 1), 0.01).note
        assert "(1,2,2)" in antiderivative_case((2, 2, 1), 0.01).note
        assert antiderivative_case((2, 1, 1), 0.01).note == ""
        assert antiderivative_case((1, 1, 3), 0.01).note == ""


class TestVerifyAntiderivative:
    def test_difference_bracket_over_x_squared(self):
        # the (2,1,1) case against an integrand written out longhand
        eps = 0.01
        case = antiderivative_case((2, 1, 1), eps)
        xs = np.linspace(2.0, 10.0, 161)
        mismatch = max(
            abs(case.integrand(x) - (cmath.exp(1j * eps * x) - 1.0) / x**2)
            for x in xs
        )
        assert mismatch < 1e-16
        assert verify_antiderivative(case, xs) < 1e-6

    def test_generic_gamma_pair_at_j_3(self):
        eps, j = 0.02, 3
        case = antiderivative_case((1, 1, j), eps)
        xs = np.linspace(2.0, 10.0, 161)
        mismatch = max(
            abs(
                case.integrand(x)
                - (cmath.exp(1j * eps * (j - 2) * x) - 1.0)
                * math.exp(-(j - 2) * x)
                / x
            )
            for x in xs
        )
        assert mismatch < 1e-16
        assert verify_antiderivative(case, xs) < 1e-6

    @pytest.mark.parametrize("triple", ALL_TRIPLES, ids=str)
    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_every_case_differentiates_to_its_integrand(self, triple, eps):
        case = antiderivative_case(triple, eps)
        assert verify_antiderivative(case, np.linspace(1.0, 20.0, 115)) < 1e-5

    @pytest.mark.parametrize("triple", [(1, 1, 5), (2, 2, 4), (1, 3, 4)], ids=str)
    def test_higher_tail_indices(self, triple):
        case = antiderivative_case(triple, 1e-2)
        assert verify_antiderivative(case, np.linspace(1.0, 20.0, 115)) < 1e-5

    @pytest.mark.parametrize("triple", ALL_TRIPLES, ids=str)
    def test_zero_eps_degenerates_to_zero(self, triple):
        case = antiderivative_case(triple, 0.0)
        for x in (1.0, 5.0, 20.0):
            assert abs(case.closed_form(x)) < 1e-12
            assert case.integrand(x) == 0j
        assert verify_antiderivative(case, np.linspace(1.0, 20.0, 39)) < 1e-10

    @pytest.mark.parametrize("triple", ALL_TRIPLES, ids=str)
    def test_quadrature_agrees_with_endpoint_difference(self, triple):
        # independent route: adaptive quadrature of the integrand must match
        # the closed form evaluated at the endpoints
        case = antiderivative_case(triple, 0.01)
        integral, _ = complex_quad(case.integrand, 2.0, 9.0, tol=1e-12)
        assert abs(integral - (case.closed_form(9.0) - case.closed_form(2.0))) < 1e-12

    @pytest.mark.parametrize("triple", ALL_TRIPLES, ids=str)
    def test_endpoint_difference_matches_mpmath(self, triple):
        # the integrand written out from its shape, integrated at 30 digits
        # over [log 3, log 10^6]
        a, b, c = triple
        x0, x1 = math.log(3), math.log(10**6)
        for eps in (0.01, 0.1, 0.5):
            phase_b = {
                1: lambda x: 1,
                2: lambda x: (mpmath.expj(eps * x) - 1) * mpmath.exp(-x),
                3: lambda x: mpmath.exp(-2 * x),
            }[b]
            if c == 1:
                phase_c = lambda x: mpmath.expj(eps * x) - 1
            else:
                phase_c = lambda x: (mpmath.expj(eps * (c - 2) * x) - 1) * mpmath.exp(-(c - 2) * x)
            with mpmath.workdps(30):
                expected = complex(
                    mpmath.quad(lambda x: phase_b(x) * phase_c(x) / x**a, mpmath.linspace(x0, x1, 9))
                )
            case = antiderivative_case(triple, eps)
            value = case.closed_form(x1) - case.closed_form(x0)
            assert abs(value - expected) <= 1e-9 * abs(expected), (eps, value, expected)

    def test_grid_validation(self):
        case = antiderivative_case((2, 1, 1), 0.01)
        with pytest.raises(DomainError, match="empty"):
            verify_antiderivative(case, [])
        with pytest.raises(DomainError, match="positive"):
            verify_antiderivative(case, [1e-4])
        with pytest.raises(DomainError, match="step"):
            verify_antiderivative(case, [1.0], step=0.0)


class TestMainTerm:
    def test_zero_frequency_vanishes(self):
        assert main_term_J111(EnsembleConfig(2, 1, 10**4), 0.0) == 0j

    def test_limit_value_at_unit_frequency(self):
        value = main_term_limit(1.0, 1.0)
        expected = complex(CI_AT_1 - EULER_GAMMA, SI_AT_1)
        assert abs(value - expected) < 1e-12

    def test_limit_scales_linearly_in_alpha(self):
        base = main_term_limit(1.0, 2.5)
        assert abs(main_term_limit(2j, 2.5) - 2j * base) < 1e-14

    def test_deviation_from_limit_is_order_eps(self):
        cfg = EnsembleConfig(2, 1, 10**6)
        d_star = threshold_prime(cfg)
        eps = 1.0 / math.log(cfg.N)
        deviation = abs(main_term_J111(cfg, 1.0) - main_term_limit(1.0, 1.0))
        assert 0.7 * eps * math.log(d_star) < deviation < 1.3 * eps * math.log(d_star)

    def test_squaring_n_halves_the_deviation(self):
        limit = main_term_limit(1.0, 1.0)
        small = abs(main_term_J111(EnsembleConfig(2, 1, 10**3), 1.0) - limit)
        large = abs(main_term_J111(EnsembleConfig(2, 1, 10**6), 1.0) - limit)
        assert 1.4 < small / large < 2.6

    def test_matches_mpmath_limit_at_both_endpoints(self):
        # the truncated integral over [v0, 1] is the limit at lam minus the
        # limit at lam * v0, both from the mpmath oracle
        cfg = EnsembleConfig(2, 1, 10**5)
        lam = 2.0
        d_star = threshold_prime(cfg)
        v0 = math.log(d_star) / math.log(cfg.N)
        expected = main_term_limit(1.0, lam) - main_term_limit(1.0, lam * v0)
        assert abs(main_term_J111(cfg, lam) - expected) < 1e-12

    def test_preconditions(self):
        cfg = EnsembleConfig(2, 1, 10**4)
        with pytest.raises(DomainError, match="alpha"):
            main_term_J111(cfg, 1.0, d_star=1)
        with pytest.raises(DomainError, match="d_star"):
            main_term_J111(EnsembleConfig(2, 1, 5), 1.0, d_star=7)
        with pytest.raises(DomainError, match="negative"):
            main_term_J111(cfg, -1.0)
        with pytest.raises(DomainError, match="negative"):
            main_term_limit(1.0, -1.0)


class TestBoundaryTerms:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_upper_term_decays_like_inverse_log(self, lam):
        scaled = []
        for n in (10**3, 10**4, 10**5, 10**6):
            bt = boundary_terms(EnsembleConfig(2, 1, n), lam)
            assert bt.d_star == 3
            assert bt.eps == lam / math.log(n)
            scaled.append(abs(bt.at_N) * math.log(n))
        # |at_N| * log N approaches |alpha| * |e^{i lam} - 1| from above
        cap = 1.3 * abs(cmath.exp(1j * lam) - 1.0)
        assert max(scaled) < cap
        assert max(scaled) / min(scaled) < 1.2

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_threshold_term_is_order_eps(self, lam):
        ratios = []
        for n in (10**3, 10**4, 10**5, 10**6):
            bt = boundary_terms(EnsembleConfig(2, 1, n), lam)
            ratios.append(abs(bt.at_threshold) / (bt.eps + n**-2))
        assert max(ratios) < 1.0
        assert max(ratios) / min(ratios) < 1.05

    def test_upper_term_matches_longhand_factor(self):
        cfg = EnsembleConfig(2, 1, 10**4)
        lam = 1.0
        bt = boundary_terms(cfg, lam)
        x = complex(cfg.alpha) / cfg.N
        factors = [x**t * (1.0 - x) / (1.0 - x**cfg.k) for t in range(cfg.k)]
        z = sum(f * cmath.exp(1j * lam * t) for t, f in enumerate(factors))
        assert abs(bt.at_N - prime_count(cfg.N) * cmath.log(z)) < 1e-13

    def test_complex_alpha_configuration(self):
        bt = boundary_terms(EnsembleConfig(3, 1 + 0.5j, 10**4), 1.0)
        assert bt.d_star > abs(1 + 0.5j)
        assert np.isfinite(abs(bt.at_N)) and np.isfinite(abs(bt.at_threshold))

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            boundary_terms(EnsembleConfig(2, 1, 10**4), -0.5)


@pytest.fixture(scope="module")
def n_grid():
    return [EnsembleConfig(2, 1, 10**e) for e in range(3, 8)]


@pytest.fixture(scope="module")
def deviation_report():
    return limit_deviation_scan(2, 1.0, (0.5, 1.0, 2.0, 5.0), (10**4, 10**5, 10**6))


class TestBoundScan:
    def test_eps_log_model_beats_eps_model(self, n_grid):
        report = bound_scan((2, 1, 1), n_grid, (1.0,))
        eps_fit = report.alternative("eps")
        eps_log_fit = report.alternative("eps-log-eps")
        assert eps_log_fit.residual < eps_fit.residual
        assert eps_log_fit.residual < 0.02
        assert report.fit.residual < 0.01
        assert all(np.isfinite(c) for c in report.fit.coefficients)

    def test_explicit_eps_term_has_finite_coefficient(self, n_grid):
        report = bound_scan((1, 2, 2), n_grid, (0.5, 1.0, 2.0))
        (coefficient,) = report.alternative("eps").coefficients
        assert np.isfinite(coefficient)
        assert coefficient > 0.0

    def test_closing_envelope_is_proportional_to_eps(self, n_grid):
        # c = k + 2 with k = 2: the eps / u^3 closing form
        report = bound_scan((1, 1, 4), n_grid, (0.5, 1.0, 2.0))
        assert report.alternative("eps").residual < 0.01

    def test_zero_frequency_rows_vanish(self, n_grid):
        report = bound_scan((2, 1, 1), n_grid, (0.0,))
        assert all(row.magnitude == 0.0 for row in report.rows)
        assert report.fit.residual == 0.0

    def test_row_bookkeeping(self, n_grid):
        report = bound_scan((2, 2, 3), n_grid, (0.5, 1.0))
        assert len(report.rows) == len(n_grid) * 2
        assert report.term == (2, 2, 3)
        assert report.label == "term-2-2-3"
        for row in report.rows:
            assert row.eps == row.lam / math.log(row.N)
        with pytest.raises(KeyError):
            report.alternative("nope")

    def test_scan_magnitude_matches_closed_form(self, n_grid):
        # the quadrature magnitude equals the antiderivative's endpoint
        # difference through the public interfaces
        report = bound_scan((2, 1, 1), n_grid, (1.0,))
        row = next(r for r in report.rows if r.N == 10**4)
        case = antiderivative_case((2, 1, 1), row.eps)
        x0 = math.log(threshold_prime(EnsembleConfig(2, 1, 10**4)))
        expected = abs(case.closed_form(math.log(10**4)) - case.closed_form(x0))
        assert abs(row.magnitude - expected) < 1e-9

    def test_preconditions(self, n_grid):
        with pytest.raises(DomainError, match="single k"):
            bound_scan((2, 1, 1), [EnsembleConfig(2, 1, 100), EnsembleConfig(3, 1, 100)], (1.0,))
        with pytest.raises(DomainError, match="k \\+ 2"):
            bound_scan((1, 1, 5), n_grid, (1.0,))
        with pytest.raises(DomainError, match="leading term"):
            bound_scan((1, 1, 1), n_grid, (1.0,))
        with pytest.raises(DomainError, match="catalogue"):
            bound_scan((3, 1, 1), n_grid, (1.0,))
        with pytest.raises(DomainError, match="negative"):
            bound_scan((2, 1, 1), n_grid, (-1.0,))
        with pytest.raises(DomainError, match="empty"):
            bound_scan((2, 1, 1), [], (1.0,))


class TestLimitDeviationScan:
    def test_deviation_decreases_along_n(self, deviation_report):
        for lam in (0.5, 1.0, 2.0, 5.0):
            devs = [row.magnitude for row in deviation_report.rows if row.lam == lam]
            assert len(devs) == 3
            assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_two_feature_fit_is_tight_enough(self, deviation_report):
        assert deviation_report.fit.residual < 0.5
        assert all(np.isfinite(c) for c in deviation_report.fit.coefficients)
        assert deviation_report.label.startswith("limit-deviation")

    def test_zero_frequency_row_vanishes(self):
        report = limit_deviation_scan(2, 1.0, (0.0, 1.0), (10**3,))
        first = next(row for row in report.rows if row.lam == 0.0)
        assert first.magnitude < 1e-12

    def test_preconditions(self):
        with pytest.raises(DomainError, match="negative"):
            limit_deviation_scan(2, 1.0, (-1.0,), (10**3,))
        with pytest.raises(DomainError, match="empty"):
            limit_deviation_scan(2, 1.0, (), (10**3,))
