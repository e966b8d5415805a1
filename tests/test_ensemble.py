"""Tests for the finite multiplicative ensemble machinery.

Oracles used here, in decreasing order of independence:
  * hand-enumerable ensembles (N <= 10) with exact element lists;
  * exact rational identities (partition products, marginal rows, series
    coefficient patterns) evaluated symbolically in the test;
  * FFT recovery of series coefficients from function samples on a circle,
    which shares no code with the closed-form coefficient routine;
  * cross-route agreement (product evaluator vs. enumeration sum, bucketed
    evaluator vs. exact evaluator) at stated tolerances.
"""

import copy
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from kfree import ensemble
from kfree.ensemble import (
    CharfnEvaluator,
    EnsembleConfig,
    Factorization,
    FastCharfn,
    LaurentCoeffs,
    cancellation_check,
    charfn_for,
    ensemble_charfn,
    enumerate_ensemble,
    error_kernel,
    forbidden_alphas,
    laurent_coeffs,
    laurent_partial_sum,
    marginal_row,
    measure,
    nu_marginal,
    partition_constant,
    partition_function,
    threshold_prime,
    trivial_charfn_bound,
    _log_series_coeffs,
    _marginal_rows,
)
from kfree.dickman import charfn_limit
from kfree.errors import DegenerateConfigError, DomainError, SizeCapError
from kfree.primes import sieve_primes
from kfree.smoothsum import _symmetric_grid


def random_alpha(rng, radius=1.9):
    """Nonzero complex number in the open disk of the given radius."""
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if 0.05 < abs(z) < radius:
            return z


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_squarefree_5_smooth_exact_list(self):
        elems = enumerate_ensemble(EnsembleConfig(k=2, alpha=1.0, N=5))
        assert [v for v, _ in elems] == [1, 2, 3, 5, 6, 10, 15, 30]

    def test_cubefree_4_smooth_exact_list(self):
        # 3^pi(4) = 9 elements; in particular 12 = 2^2 * 3 belongs.
        elems = enumerate_ensemble(EnsembleConfig(k=3, alpha=1.0, N=4))
        assert [v for v, _ in elems] == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_single_prime(self):
        elems = enumerate_ensemble(EnsembleConfig(k=2, alpha=1.0, N=2))
        assert [v for v, _ in elems] == [1, 2]

    @pytest.mark.parametrize("k,N", [(2, 7), (3, 5), (4, 3)])
    def test_count_is_k_to_prime_count(self, k, N):
        n_primes = len(sieve_primes(N).primes)
        elems = enumerate_ensemble(EnsembleConfig(k=k, alpha=1.0, N=N))
        assert len(elems) == k**n_primes

    def test_elements_are_kfree_and_smooth(self):
        cfg = EnsembleConfig(k=3, alpha=1.0, N=7)
        for value, fac in enumerate_ensemble(cfg):
            assert value == fac.value
            for p, t in fac.exponents:
                assert p <= cfg.N
                assert 1 <= t <= cfg.k - 1

    def test_cap_enforced(self):
        with pytest.raises(SizeCapError):
            enumerate_ensemble(EnsembleConfig(k=2, alpha=1.0, N=200), cap=1000)

    def test_factorization_accessors(self):
        fac = Factorization(((2, 2), (3, 1)))
        assert fac.value == 12
        assert fac.omega == 3
        assert fac.exponent(2) == 2
        assert fac.exponent(5) == 0
        assert fac.xi(12) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class TestMeasure:
    @pytest.mark.parametrize(
        "alpha", [1.0, -1.0, 2j / 3, 1 + 1j, 0.37 - 1.2j]
    )
    def test_three_element_subset(self, alpha):
        cfg = EnsembleConfig(k=2, alpha=alpha, N=5)
        got = measure(cfg, [1, 3, 10])
        want = 1 + alpha / 3 + alpha**2 / 10
        assert got == pytest.approx(want, rel=1e-15)

    def test_cubefree_subset(self):
        alpha = 0.6 + 0.8j
        cfg = EnsembleConfig(k=3, alpha=alpha, N=4)
        got = measure(cfg, [1, 9, 18])
        want = 1 + alpha**2 / 9 + alpha**3 / 18
        assert got == pytest.approx(want, rel=1e-15)

    def test_empty_subset(self):
        assert measure(EnsembleConfig(k=2, alpha=1.0, N=5), []) == 0

    def test_rejects_rough_element(self):
        with pytest.raises(DomainError):
            measure(EnsembleConfig(k=2, alpha=1.0, N=5), [7])

    def test_rejects_non_kfree_element(self):
        with pytest.raises(DomainError):
            measure(EnsembleConfig(k=2, alpha=1.0, N=5), [4])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            measure(EnsembleConfig(k=2, alpha=1.0, N=5), [0])

    def test_full_ensemble_equals_partition_function(self):
        for k, alpha, N in [(2, 1.0, 10), (3, 1 + 1j, 7), (4, -0.75, 5)]:
            cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
            total = measure(cfg, enumerate_ensemble(cfg))
            z = partition_function(cfg)
            assert total == pytest.approx(z, rel=5e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# partition function and its large-N constant
# ---------------------------------------------------------------------------


class TestPartitionFunction:
    def test_squarefree_5_smooth_value(self):
        z = partition_function(EnsembleConfig(k=2, alpha=1.0, N=5))
        assert z == pytest.approx(12 / 5, rel=1e-15)

    @pytest.mark.parametrize("N", [2, 10, 100])
    def test_zero_at_negated_prime(self, N):
        # alpha = -2 kills the p = 2 factor: 1 + (-2)/2 = 0, and its log
        # (-inf) must not raise a divide warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partition_function(EnsembleConfig(k=2, alpha=-2.0, N=N)) == 0

    @pytest.mark.parametrize("alpha", [-2.0 + 2.0**-30, -2.5])
    def test_near_vanishing_and_negative_factors(self, alpha):
        # Exact rational product (alpha/2 is exact, so 1 + alpha/2 is too): a
        # factor near 0 keeps its relative accuracy, and negative factors
        # leave a real Z real.
        exact = Fraction(1)
        for p in (2, 3, 5, 7, 11, 13):
            exact *= 1 + Fraction(alpha) / p
        z = partition_function(EnsembleConfig(k=2, alpha=alpha, N=13))
        assert z.imag == 0.0
        assert abs(z.real - float(exact)) <= 1e-13 * abs(float(exact))

    def test_matches_enumeration(self):
        cfg = EnsembleConfig(k=3, alpha=1 + 1j, N=7)
        brute = measure(cfg, enumerate_ensemble(cfg))
        z = partition_function(cfg)
        assert abs(z - brute) <= 1e-12 * abs(brute)

    def test_large_alpha_head_factors(self):
        # |alpha| > 2 puts the first factors far outside |z - 1| < 1/2.
        cfg = EnsembleConfig(k=4, alpha=3.5 - 1.0j, N=13)
        brute = measure(cfg, enumerate_ensemble(cfg))
        z = partition_function(cfg)
        assert abs(z - brute) <= 1e-12 * abs(brute)

    def test_chunked_sum_holds_no_full_length_array(self, table_1e7):
        # Summed over 2^14-prime slices, Z at N = 10^7 (665k primes, 41 slices)
        # peaks at 1.2 MB under tracemalloc, against 48 MB for one full-length
        # pass.  One full-length float copy of the primes (5.3 MB) breaks the
        # 4 MB allowance; every slice must still enter the sum.
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**7)
        partition_function(cfg)  # warm lazy caches outside the measurement
        tracemalloc.start()
        try:
            z = partition_function(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        exact = math.exp(math.fsum(np.log1p(1.0 / table_1e7.primes)))
        assert z.imag == 0.0 and z.real == pytest.approx(exact, rel=1e-13)


class TestPartitionConstant:
    def test_squarefree_unit_alpha_report(self):
        rep = partition_constant(2, 1.0)
        diffs = [abs(b - a) for a, b in zip(rep.ratios, rep.ratios[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert rep.est_error < 1e-3
        assert abs(rep.value - rep.predicted) < max(1e-3, 10 * rep.est_error)
        assert set(rep.candidates) == {"exp(-gamma)", "6*exp(gamma)/pi^2"}
        assert (
            rep.candidates["6*exp(gamma)/pi^2"] < rep.candidates["exp(-gamma)"]
        )
        assert rep.supported == "6*exp(gamma)/pi^2"

    def test_cubefree_negative_alpha(self):
        rep = partition_constant(3, -1.0, n_values=(10**3, 10**4, 10**5, 10**6))
        assert abs(rep.value) > 0.1
        assert abs(rep.value - rep.predicted) < 1e-2

    def test_rejects_forbidden_alpha(self):
        with pytest.raises(DegenerateConfigError):
            partition_constant(2, -2.0 + 0j, n_values=(10**3, 10**4, 10**5))

    def test_rejects_large_alpha(self):
        with pytest.raises(DomainError):
            partition_constant(2, 2.0, n_values=(10**3, 10**4, 10**5))

    def test_predicted_constant_holds_no_full_length_array(self, table_1e7):
        # Summed over 2^14-prime slices up to its default prime_limit 10^7,
        # the prediction peaks at 1.1 MB under tracemalloc, against 46 MB for
        # one full-length pass, and agrees with that pass (written out here,
        # tail correction included) to rounding.
        primes = table_1e7.primes.astype(float)
        log_p = math.log(10**7)
        for k, alpha in [(2, 1.0), (3, 0.5 - 0.5j)]:
            ensemble._predicted_constant(k, alpha)  # warm lazy caches outside the measurement
            tracemalloc.start()
            try:
                got = ensemble._predicted_constant(k, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
            x = alpha / primes
            tail = sum(
                (1.0 / j - (k / j if j % k == 0 else 0.0)) * alpha**j * scipy.special.exp1((j - 1) * log_p)
                for j in range(2, 5)
            )
            log_full = alpha * ensemble.MERTENS + ensemble._log_euler(ensemble._factor_offset(k, x)) - np.sum(x) + tail
            assert abs(got / np.exp(log_full) - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# forbidden parameter set
# ---------------------------------------------------------------------------


class TestForbiddenAlphas:
    def test_square_case_is_negated_primes(self):
        got = sorted(forbidden_alphas(2, 7), key=lambda z: z.real)
        want = [-7, -5, -3, -2]
        assert len(got) == 4
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    def test_fourth_power_case_contains_imaginary_axis(self):
        got = forbidden_alphas(4, 3)
        assert len(got) == 6
        for w in (-2, -3, 2j, -2j, 3j, -3j):
            assert min(abs(g - w) for g in got) < 1e-12

    def test_cube_case_two_rays(self):
        got = forbidden_alphas(3, 2)
        want = [2 * np.exp(2j * np.pi / 3), 2 * np.exp(4j * np.pi / 3)]
        assert len(got) == 2
        for w in want:
            assert min(abs(g - w) for g in got) < 1e-12


# ---------------------------------------------------------------------------
# exponent marginals
# ---------------------------------------------------------------------------


class TestMarginals:
    def test_unit_alpha_at_two(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        assert nu_marginal(cfg, 2, 0) == pytest.approx(2 / 3, rel=1e-15)
        assert nu_marginal(cfg, 2, 1) == pytest.approx(1 / 3, rel=1e-15)

    def test_rows_sum_to_one_randomized(self, rng):
        primes = sieve_primes(10**4).primes
        for _ in range(200):
            k = int(rng.integers(2, 6))
            alpha = random_alpha(rng)
            p = int(primes[rng.integers(0, len(primes))])
            cfg = EnsembleConfig(k=k, alpha=alpha, N=p)
            total = complex(np.sum(marginal_row(cfg, p)))
            assert abs(total - 1.0) <= 1e-14

    def test_large_prime_nearly_certain_zero_exponent(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=1000)
        got = nu_marginal(cfg, 997, 0)
        assert abs(got - (1 - 1 / 997)) <= 2 / 997**2

    def test_pole_detected(self):
        with pytest.raises(DegenerateConfigError):
            nu_marginal(EnsembleConfig(k=2, alpha=-3.0, N=10), 3, 0)

    def test_rejects_composite_p(self):
        with pytest.raises(DomainError):
            nu_marginal(EnsembleConfig(k=2, alpha=1.0, N=10), 9, 0)

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(DomainError):
            nu_marginal(EnsembleConfig(k=2, alpha=1.0, N=10), 3, 2)


class TestThresholdPrime:
    @pytest.mark.parametrize("k,alpha", [(2, 1.9), (3, 1 + 0.5j), (2, -1.0)])
    def test_tail_factors_inside_half_disk(self, k, alpha):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=1000)
        d_star = threshold_prime(cfg)
        assert d_star > abs(alpha)
        for p in sieve_primes(1000).primes:
            p = int(p)
            if p <= d_star:
                continue
            row = marginal_row(cfg, p)
            envelope = 2 * float(np.sum(np.abs(row[1:])))
            assert envelope < 0.5

    @pytest.mark.parametrize("N", [7, 10**5])
    @pytest.mark.parametrize(
        "k,alpha",
        [
            (2, 1.0),
            (2, -1.0),
            (3, 1 + 0.5j),
            (4, 3.5 - 1j),
            (3, -1.5),
            (2, 7.2),
            # within 1e-9 of the forbidden rays through -3 and 5 e^{2 pi i/3}
            (2, -3.0 + 1e-9j),
            (3, (5.0 + 1e-9j) * np.exp(2j * np.pi / 3)),
        ],
    )
    def test_matches_full_table_scan(self, k, alpha, N):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        assert threshold_prime(cfg) == threshold_prime_full_table(cfg)

    @pytest.mark.parametrize("k,alpha", [(2, -3.0), (3, 5.0 * np.exp(2j * np.pi / 3))])
    def test_pole_raises_like_full_table_scan(self, k, alpha):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**5)
        with pytest.raises(DegenerateConfigError):
            threshold_prime_full_table(cfg)
        with pytest.raises(DegenerateConfigError):
            threshold_prime(cfg)


def threshold_prime_full_table(cfg):
    """Reference d*: the disk condition checked over every prime <= N."""
    primes = sieve_primes(cfg.N).primes
    rows = _marginal_rows(cfg.k, cfg.alpha, primes.astype(float))
    envelope = 2.0 * np.sum(np.abs(np.stack(rows[1:])), axis=0)
    bad = np.nonzero(envelope >= 0.5)[0]
    d_star = int(primes[bad[-1]]) if bad.size else int(primes[0])
    while d_star <= abs(cfg.alpha):
        idx = int(np.searchsorted(primes, d_star, side="right"))
        if idx >= len(primes):
            break
        d_star = int(primes[idx])
    return d_star


# ---------------------------------------------------------------------------
# series coefficients at large argument
# ---------------------------------------------------------------------------


def fft_series_coeffs(k, alpha, t, l_max, n_samples=512):
    """Recover the 1/u coefficients of the marginal by FFT on a circle.

    Samples F_t at u = R e^{i theta} with R = 2|alpha| + 2, where the series
    in 1/u converges geometrically; the discrete Fourier transform in theta
    then isolates each coefficient.  Shares no code with the closed form.
    """
    R = 2 * abs(alpha) + 2
    theta = 2 * np.pi * np.arange(n_samples) / n_samples
    u = R * np.exp(1j * theta)
    x = alpha / u
    values = x**t * (1 - x) / (1 - x**k)
    # values_n = sum_l b_l R^{-l} e^{-i l theta_n}, so the inverse transform
    # (positive sign convention) isolates b_l R^{-l} at index l.
    spectrum = np.fft.ifft(values)
    return [complex(spectrum[l] * R**l) for l in range(l_max + 1)]


class TestLaurent:
    def test_alternating_pattern(self):
        got = laurent_coeffs(2, 1.0, 0, 7).coefficients
        assert got == tuple((-1.0 + 0j) ** l for l in range(8))

    def test_cube_pattern_alpha_two(self):
        got = laurent_coeffs(3, 2.0, 0, 5).coefficients
        assert got == (1, -2, 0, 8, -16, 0)

    def test_shift_rule(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            t = int(rng.integers(0, k))
            alpha = random_alpha(rng)
            base = laurent_coeffs(k, alpha, 0, k + 8).coefficients
            shifted = laurent_coeffs(k, alpha, t, k + 8).coefficients
            for l in range(k + 9):
                want = alpha**t * (base[l - t] if l >= t else 0)
                assert shifted[l] == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("k,alpha,t", [(2, 1.0, 0), (2, 1 + 1j, 1), (3, -1.3, 2), (4, 0.9j, 0)])
    def test_coefficients_match_fft_oracle(self, k, alpha, t):
        l_max = 10
        closed = laurent_coeffs(k, alpha, t, l_max).coefficients
        sampled = fft_series_coeffs(k, alpha, t, l_max)
        for l in range(l_max + 1):
            scale = max(1.0, abs(alpha) ** l)
            assert abs(closed[l] - sampled[l]) <= 1e-10 * scale

    @pytest.mark.parametrize("u", [10.0, 50.0])
    @pytest.mark.parametrize("k,alpha,t", [(2, 1.0, 0), (2, 1 + 1j, 1), (3, -1.3, 1)])
    def test_partial_sum_reproduces_marginal(self, u, k, alpha, t):
        l_max = 12
        coeffs = laurent_coeffs(k, alpha, t, l_max)
        fitted = laurent_partial_sum(coeffs, u)
        x = alpha / u
        exact = x**t * (1 - x) / (1 - x**k)
        r = abs(alpha) / u
        tail = r ** (l_max + 1) / (1 - r)
        assert abs(fitted - exact) <= max(tail, 1e-14)

    def test_rejects_small_l_max(self):
        with pytest.raises(DomainError):
            laurent_coeffs(3, 1.0, 0, 4)

    def test_rejects_bad_t(self):
        with pytest.raises(DomainError):
            laurent_coeffs(2, 1.0, 2, 10)


class TestCancellation:
    @pytest.mark.parametrize(
        "k,alpha,l", [(2, 1 + 1j, 5), (4, 1.7, 9), (3, -1.0, 2)]
    )
    def test_named_cases_vanish(self, k, alpha, l):
        assert abs(cancellation_check(k, alpha, l)) <= 1e-12 * max(1.0, abs(alpha) ** l)

    def test_randomized(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            l = int(rng.integers(2, 21))
            alpha = random_alpha(rng, radius=2.0)
            got = cancellation_check(k, alpha, l)
            assert abs(got) <= 1e-12 * max(1.0, abs(alpha) ** l)

    def test_rejects_small_l(self):
        with pytest.raises(DomainError):
            cancellation_check(2, 1.0, 1)


# ---------------------------------------------------------------------------
# finite-N characteristic function
# ---------------------------------------------------------------------------


def charfn_by_enumeration(cfg, lam):
    """E[e^{i lam xi}] as an explicit normalized sum over the full ensemble."""
    z = partition_function(cfg)
    total = 0j
    for value, fac in enumerate_ensemble(cfg):
        weight = complex(cfg.alpha) ** fac.omega / value
        total += weight * np.exp(1j * lam * fac.xi(cfg.N))
    return total / z


class TestCharfn:
    def test_zero_frequency_is_exactly_one(self):
        cfg = EnsembleConfig(k=2, alpha=1 + 1j, N=100)
        assert ensemble_charfn(cfg, 0.0) == 1.0
        assert CharfnEvaluator(cfg).grid([0.0])[0] == 1.0

    def test_matches_enumeration_small(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        got = ensemble_charfn(cfg, 1.0)
        want = charfn_by_enumeration(cfg, 1.0)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "k,alpha,N", [(3, 1 + 1j, 7), (4, 3.5 - 1j, 13), (2, 1.9, 30)]
    )
    def test_matches_enumeration_complex_alpha(self, k, alpha, N):
        # the last two have factors outside the half-disk |z - 1| < 1/2
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        for lam in (0.7, 2.3, -4.1):
            got = ensemble_charfn(cfg, lam)
            want = charfn_by_enumeration(cfg, lam)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_conjugate_symmetry_real_alpha(self):
        ev = CharfnEvaluator(EnsembleConfig(k=2, alpha=-1.0, N=500))
        for lam in (0.5, 1.7, 3.0):
            assert ev(-lam) == pytest.approx(np.conj(ev(lam)), rel=1e-13)

    def test_near_limit_at_million(self, table_1e6):
        # The absolute gap at N = 10^6 is ~0.098 (the relative gap is still
        # ~12% and only falls below 10% near N = 10^8); the acceptance scan
        # certifies that the gap shrinks monotonically with N.
        got = ensemble_charfn(EnsembleConfig(k=2, alpha=1.0, N=10**6), 1.0)
        limit = charfn_limit(1.0, 1.0)
        assert abs(got - limit) < 0.10

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1 + 0.5j)])
    def test_trivial_bound(self, k, alpha, rng):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=1000)
        bound = trivial_charfn_bound(cfg)
        ev = CharfnEvaluator(cfg)
        lams = rng.uniform(-50, 50, size=20)
        assert np.all(np.abs(ev.grid(lams)) <= bound * (1 + 1e-12))

    @pytest.mark.parametrize("k,alpha,N", [(2, 0.7 + 0.3j, 7), (3, -0.8, 5)])
    def test_exponents_independent_across_primes(self, k, alpha, N):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        elems = enumerate_ensemble(cfg)
        z = partition_function(cfg)
        p, q = 2, 3
        for s in range(k):
            for t in range(k):
                subset = [
                    fac
                    for _, fac in elems
                    if fac.exponent(p) == s and fac.exponent(q) == t
                ]
                joint = measure(cfg, subset) / z
                product = nu_marginal(cfg, p, s) * nu_marginal(cfg, q, t)
                assert abs(joint - product) <= 1e-14


class TestCharfnFor:
    def test_exact_up_to_ten_thousand_then_fast(self):
        assert type(charfn_for(EnsembleConfig(k=2, alpha=1.0, N=10**4))) is CharfnEvaluator
        assert type(charfn_for(EnsembleConfig(k=2, alpha=1.0, N=10**5))) is FastCharfn


def _poly_mult(a: list, b: list) -> list:
    """Product of two coefficient lists (index = power of X) of per-prime arrays."""
    out = [np.zeros_like(a[0]) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def log_series_by_expansion(k, F, magnitudes=False):
    """Reference c_d: log(1 + w) through w^4, w = sum_t F_t (X^t - 1), expanded in X.

    F holds the arrays F_1, ..., F_{k-1}.  With ``magnitudes`` every
    coefficient and sign is replaced by its absolute value, which gives the
    size of the terms each c_d sums (the scale of its rounding error).
    """
    a = [np.zeros_like(F[0]) for _ in range(k)]
    for t in range(1, k):
        a[t] = np.abs(F[t - 1]) if magnitudes else F[t - 1]
        a[0] = a[0] + a[t] if magnitudes else a[0] - a[t]
    c = [np.zeros_like(a[0]) for _ in range(4 * (k - 1) + 1)]
    power = list(a)
    for m in range(1, 5):
        sign = 1.0 if magnitudes or m % 2 else -1.0
        for d, coef in enumerate(power):
            c[d] = c[d] + sign * coef / m
        power = _poly_mult(power, a)
    return np.array(c)


def mid_primes(fast):
    """v_p and the log-series coefficients c_d(p) of the mid primes, from the prime table."""
    cfg = fast.cfg
    p = sieve_primes(cfg.N).primes[fast.mid_start : fast.split].astype(float)
    return np.log(p) / math.log(cfg.N), _log_series_coeffs(cfg.k, _marginal_rows(cfg.k, cfg.alpha, p))


def mid_log(fast, lam):
    """sum over the mid primes of sum_d c_d(p) e^{i lam d v_p}, summed directly."""
    v, c = mid_primes(fast)
    X = np.exp(1j * np.outer(lam, v))
    return sum(c[d] * X**d for d in range(c.shape[0])).sum(axis=1)


def direct_product(fast, lam):
    """prod over the direct head primes of sum_t F_t(p) X^t, X = e^{i lam v_p}."""
    X = np.exp(1j * np.outer(lam, fast._head_v))
    z, Xt = np.zeros_like(X), np.ones_like(X)
    for row in fast._head_rows:
        z += row * Xt
        Xt *= X
    return np.prod(z, axis=1)


def head_product(fast, lam):
    """The factors of every prime <= head_limit: the direct head times e^{mid_log}."""
    return direct_product(fast, lam) * np.exp(mid_log(fast, lam))


def per_bucket_grid(fast, lams):
    """phi_N with the tail summed bucket by bucket, as before the cell layout:
    sum_b e^{i lam d vbar_b} sum_j M[d, j, b] (i lam d)^j / j!, times the head."""
    lams = np.asarray(lams, dtype=float)
    out = np.empty(lams.shape, dtype=complex)
    for start in range(0, lams.size, 256):
        lam = lams[start : start + 256]
        base = np.exp(1j * np.outer(lam, fast._vbar))
        phase = np.ones_like(base)
        acc = np.full(lam.shape, complex(fast._moments[0, 0].sum()))
        for d in range(1, fast._degree + 1):
            phase *= base
            m = phase @ fast._moments[d].T
            il = 1j * lam * d
            acc += m[:, 0] + il * (m[:, 1] + il / 2.0 * (m[:, 2] + il / 3.0 * m[:, 3]))
        out[start : start + lam.size] = np.exp(acc) * head_product(fast, lam)
    out[lams == 0.0] = 1.0
    return out


def cell_series_grid(fast, lams, terms):
    """phi_N from the cell series cut at ``terms`` terms, written out per fine bucket:
    sum_b e^{s U_b} sum_j M[d, j, b] s^j / j! sum_{m < terms - j} (s delta_b)^m / m!,
    s = i lam d, U_b the centre of the cell holding bucket b, delta_b = vbar_b - U_b.
    A mid prime enters as a bucket at vbar = v_p with M[d, 0] = c_d(p) and no
    higher moment, in a cell of the same width below the fine buckets."""
    lams = np.asarray(lams, dtype=float)
    B, deg = fast._vbar.size, fast._degree
    x = np.max(np.abs(lams)) * deg * fast._width / 2.0
    G = 1
    while 2 * G <= B and 2 * G * x <= 1.0:
        G *= 2
    v, c = mid_primes(fast)
    H = G * fast._width
    U = fast._v0 + (np.concatenate([np.arange(B) // G, np.floor((v - fast._v0) / H)]) + 0.5) * H
    vbar = np.append(fast._vbar, v)
    delta = np.where(vbar > 0, vbar - U, 0.0)
    M = np.zeros((deg + 1, 4, B + v.size), dtype=complex)
    M[:, :, :B], M[:, 0, B:] = fast._moments, c
    acc = np.full(lams.shape, complex(M[0, 0].sum()))
    for d in range(1, deg + 1):
        s = 1j * d * lams[:, None]
        partial = [np.zeros((lams.size, U.size), dtype=complex)]  # sum_{m < n} (s delta)^m / m!
        term = np.ones_like(partial[0])
        for m in range(terms):
            partial.append(partial[-1] + term)
            term = term * s * delta / (m + 1)
        inner = sum(M[d, j] * s**j / math.factorial(j) * partial[terms - j] for j in range(4))
        acc += np.sum(np.exp(s * U) * inner, axis=1)
    return np.exp(acc) * direct_product(fast, lams)


def cell_remainder(fast, lam_max, terms):
    """sum_{d,j,b} |M[d, j, b]| (lam_max d)^j / j! x_d^(J-j) e^x_d / (J-j)! at x_d = d / degree,
    the largest cell offset when cells are wider than one fine bucket, plus
    sum_{d,p} |c_d(p)| x_d^J e^x_d / J! over the mid primes."""
    deg, c = fast._degree, mid_primes(fast)[1]
    return sum(
        (np.abs(fast._moments[d, j]).sum() + (np.abs(c[d]).sum() if j == 0 else 0.0))
        * (lam_max * d) ** j / math.factorial(j)
        * (d / deg) ** (terms - j) * math.exp(d / deg) / math.factorial(terms - j)
        for d in range(1, deg + 1)
        for j in range(4)
    )


def reference_build(cfg, head_limit=10**4, buckets=4096):
    """vbar, moments and abs4 by the chunked bucket build, step for step."""
    primes = sieve_primes(cfg.N).primes
    primes = primes[np.searchsorted(primes, max(head_limit, threshold_prime(cfg)), side="right") :]
    v = np.log(primes) / math.log(cfg.N)
    edges = np.linspace(v.min(), v.max() * (1 + 1e-12), buckets + 1)
    idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, buckets - 1)
    counts = np.bincount(idx, minlength=buckets)
    sums = np.bincount(idx, weights=v, minlength=buckets)
    vbar = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    moments = np.zeros((4 * (cfg.k - 1) + 1, 4, buckets), dtype=complex)
    abs4 = np.zeros(moments.shape[0])
    for start in range(0, primes.size, ensemble._BUILD_CHUNK):
        stop = start + ensemble._BUILD_CHUNK
        c = _log_series_coeffs(cfg.k, _marginal_rows(cfg.k, cfg.alpha, primes[start:stop].astype(float)))
        b = idx[start:stop]
        dv = v[start:stop] - vbar[b]
        runs = np.flatnonzero(np.diff(b, prepend=-1))
        dj = np.ones_like(dv)
        for j in range(4):
            moments[:, j, b[runs]] += np.add.reduceat(c * dj, runs, axis=1)
            dj = dj * dv
        abs4 += np.abs(c) @ dj
    return vbar, moments, abs4


CELL_CASES = [(2, 1.0), (2, -1.0), (3, 1 + 0.5j), (4, 3.5 - 1j)]
MID_CASES = [*CELL_CASES, (3, -1.5)]


def scan_grid_nodes():
    """Every 8th node of the R = 360 panel grid and both ends (1441 of 11,520).

    The cell layout depends on max|lambda| alone, so these nodes see the
    layout of the whole grid; the per-bucket oracle on all 11,520 nodes
    would take about 4 s per case.
    """
    pts = _symmetric_grid(360.0)[0]
    return np.concatenate([pts[:-1:8], pts[-1:]])


class TestFastCharfn:
    def test_agrees_with_exact_within_stated_bound(self, table_1e6):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**6)
        lams = np.array([0.5, 1.0, 2.0, 3.5, 5.0])
        fast = FastCharfn(cfg)
        exact = CharfnEvaluator(cfg)
        got, want = fast.grid(lams), exact.grid(lams)
        diff = np.max(np.abs(got - want))
        bound = fast.truncation_bound(5.0)
        # The analytic bound covers series truncation only; summing ~78k
        # per-prime terms adds a machine-roundoff floor of order 1e-13.
        assert diff <= bound + 1e-13
        assert bound < 1e-6
        # the bound is on log phi_N, i.e. on the relative error
        assert np.max(np.abs(got / want - 1.0)) <= math.expm1(bound) + 1e-13

    def test_bound_is_relative_at_large_modulus(self, table_1e6):
        # |phi_N(300)| = 50.9 here, so the absolute difference (~1.2e-10)
        # exceeds the bound (~9.3e-11) while the relative one stays inside it.
        cfg = EnsembleConfig(k=3, alpha=-1.5, N=10**6)
        fast = FastCharfn(cfg)
        got, want = fast.grid([300.0])[0], CharfnEvaluator(cfg)(300.0)
        assert abs(want) > 50.0
        assert abs(got / want - 1.0) <= math.expm1(fast.truncation_bound(300.0)) + 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_log_series_coeffs_match_polynomial_expansion(self, k, rng):
        # random complex F_t, large enough that every c_d matters, and the
        # marginal rows of tail primes, where the high-degree c_d are tiny
        F = [rng.normal(size=64) * 0.2 + 1j * rng.normal(size=64) * 0.2 for _ in range(k - 1)]
        rows = _marginal_rows(k, 1.3 - 0.4j, sieve_primes(10**5).primes[-64:].astype(float))
        for F_t in (F, rows[1:]):
            got = _log_series_coeffs(k, [np.ones(64, dtype=complex), *F_t])
            want = log_series_by_expansion(k, F_t)
            scale = log_series_by_expansion(k, F_t, magnitudes=True)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale.real)

    @pytest.mark.parametrize("buckets", [256, 4096])
    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1 + 0.5j), (4, 3.5 - 1j)])
    def test_build_independent_of_chunking(self, table_1e6, monkeypatch, k, alpha, buckets):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        ref = FastCharfn(cfg, buckets=buckets)
        for chunk in (1000, len(table_1e6.primes) + 1):
            monkeypatch.setattr(ensemble, "_BUILD_CHUNK", chunk)
            got = FastCharfn(cfg, buckets=buckets)
            assert np.array_equal(got._vbar, ref._vbar)
            for d in range(ref._moments.shape[0]):
                scale = np.max(np.abs(ref._moments[d]))
                assert np.max(np.abs(got._moments[d] - ref._moments[d])) <= 1e-13 * scale
            np.testing.assert_allclose(got._abs4, ref._abs4, rtol=1e-13, atol=0.0)
            for lam in (5.0, 300.0):
                assert got.truncation_bound(lam) == pytest.approx(ref.truncation_bound(lam), rel=1e-13)

    def test_build_holds_no_full_length_complex_array(self, table_1e7):
        # Over the 663k tail primes at N = 10^7 the build keeps v_p and the
        # bucket index (16 bytes a prime, 10.1 MB) plus chunk-sized
        # temporaries (5.7 MB): 15.9 MB in all, against 192 MB when every
        # per-prime array spanned the whole tail.  One full-length complex
        # temporary (another 16 bytes a prime) breaks the 8 MB allowance.
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**7)
        fast = FastCharfn(cfg)  # warm lazy caches outside the measurement
        tracemalloc.start()
        try:
            FastCharfn(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tail = len(table_1e7.primes) - fast.split
        assert peak < 16 * tail + 8 * 2**20

    def test_truncation_bound_tracks_coarser_settings(self, table_1e6):
        # With a smaller head and fewer buckets the truncation term dominates
        # roundoff, so the bound must cover the observed error on its own.
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**6)
        lams = np.array([0.5, 1.0, 2.0, 5.0])
        fast = FastCharfn(cfg, head_limit=300, buckets=256)
        exact = CharfnEvaluator(cfg)
        diff = np.max(np.abs(fast.grid(lams) - exact.grid(lams)))
        bound = fast.truncation_bound(5.0)
        assert 1e-13 < bound < 1e-4
        assert diff <= bound

    def test_zero_frequency_exact(self, table_1e6):
        fast = FastCharfn(EnsembleConfig(k=3, alpha=1 + 0.5j, N=10**6))
        assert fast.grid([0.0])[0] == 1.0

    def test_rejects_large_k(self):
        with pytest.raises(DomainError):
            FastCharfn(EnsembleConfig(k=5, alpha=1.0, N=10**6))

    @pytest.mark.parametrize("k,alpha", [(2, -1.0), (3, 1 + 0.5j)])
    def test_dense_grid_across_blocks(self, table_1e6, k, alpha):
        # Over 600 sorted nodes on [-300, 300]: the frequency blocks must not
        # change the values, lambda = 0 stays exactly 1, and the spot
        # frequencies match the exact per-prime product.
        spots = np.array([0.5, 3.0, 20.0, 100.0, 300.0])
        lams = np.unique(np.concatenate([np.linspace(-300.0, 300.0, 601), spots]))
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        fast = FastCharfn(cfg)
        ref = fast.grid(lams, block=256)
        for block in (1, 7):
            got = fast.grid(lams, block=block)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
        assert ref[lams == 0.0][0] == 1.0
        exact = CharfnEvaluator(cfg).grid(spots)
        assert np.max(np.abs(ref[np.searchsorted(lams, spots)] - exact)) <= 1e-10

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_cells_match_per_bucket_sum(self, table_1e6, k, alpha, N):
        # On the R = 360 panel grid (256 cells at N = 10^6) and on 2049 nodes
        # up to 1024 (1024 cells), the cell evaluation gives the per-bucket
        # sum it replaces; its cut at J terms (the cell term of the bound) is
        # far below roundoff there.
        fast = FastCharfn(EnsembleConfig(k=k, alpha=alpha, N=N))
        for lams in (scan_grid_nodes(), np.linspace(-1024.0, 1024.0, 2049)):
            got, want = fast.grid(lams), per_bucket_grid(fast, lams)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-13
            assert cell_remainder(fast, np.max(lams), ensemble._CELL_TERMS) < 1e-20

    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_cell_series_at_low_order(self, table_1e6, monkeypatch, k, alpha):
        # Cut at J = 5 terms the cell series leaves a visible error: the grid
        # must equal the cut series written out per bucket, and the cell term
        # of truncation_bound must cover its distance from the per-bucket sum.
        fast = FastCharfn(EnsembleConfig(k=k, alpha=alpha, N=10**6))
        lams = np.linspace(-1024.0, 1024.0, 129)
        full_bound = fast.truncation_bound(1024.0)
        monkeypatch.setattr(ensemble, "_CELL_TERMS", 5)
        got = fast.grid(lams)
        assert np.max(np.abs(got / cell_series_grid(fast, lams, 5) - 1.0)) <= 1e-13
        cell = cell_remainder(fast, 1024.0, 5)
        assert fast.truncation_bound(1024.0) - full_bound == pytest.approx(cell, rel=1e-9)
        err = np.max(np.abs(np.log(got / per_bucket_grid(fast, lams))))
        assert 1e-12 < err <= cell

    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_bound_holds_against_exact_up_to_1000(self, table_1e6, k, alpha):
        lams = np.array([0.5, 3.0, 20.0, 100.0, 300.0, 1000.0])
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        fast = FastCharfn(cfg)
        exact = CharfnEvaluator(cfg).grid(lams)
        for got in (fast.grid(lams), np.array([fast.grid([lam])[0] for lam in lams])):
            for lam, g, e in zip(lams, got, exact):
                assert abs(g / e - 1.0) <= math.expm1(fast.truncation_bound(lam)) + 1e-13

    def test_layout_follows_max_frequency_only(self, table_1e6):
        # Adding lambda = +-1000 changes the layout (256 -> 64 cells) and
        # nothing else: on the shared nodes the values move within the bound,
        # and +1000 and -1000 give the same values.
        fast = FastCharfn(EnsembleConfig(k=2, alpha=-1.0, N=10**6))
        lams = scan_grid_nodes()
        ref = fast.grid(lams)
        plus = fast.grid(np.append(lams, 1000.0))[:-1]
        minus = fast.grid(np.append(lams, -1000.0))[:-1]
        assert np.max(np.abs(plus / minus - 1.0)) <= 1e-13
        assert 0.0 < np.max(np.abs(plus / ref - 1.0)) <= math.expm1(2 * fast.truncation_bound(360.0)) + 1e-13

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", MID_CASES)
    def test_direct_head_is_cut_by_mid_budget(self, table_1e6, k, alpha, N):
        # The mid primes primes[mid_start:split] are the longest run below the
        # fine buckets whose order-5 log remainder sum E^5 / (5 (1 - E)) fits
        # the budget; every prime <= d* stays in the direct head.
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        fast = FastCharfn(cfg)
        primes = sieve_primes(N).primes
        first = int(np.searchsorted(primes, threshold_prime(cfg), side="right"))
        assert fast._head_v.size == fast.mid_start >= first
        rows = _marginal_rows(k, alpha, primes[: fast.split].astype(float))
        env = 2.0 * np.sum(np.abs(np.stack(rows[1:])), axis=0)
        rem = env**5 / (5.0 * (1.0 - np.minimum(env, 0.5)))
        assert rem[fast.mid_start :].sum() <= ensemble._MID_BUDGET
        assert fast.mid_start == first or rem[fast.mid_start - 1 :].sum() > ensemble._MID_BUDGET
        if k == 2 and N == 10**6:
            assert fast.mid_start <= 320  # of the 1229 primes <= 10^4

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", MID_CASES)
    def test_mid_primes_match_log_series_oracle(self, table_1e6, k, alpha, N):
        # With the fine-bucket moments zeroed and every direct-head factor
        # set to 1, the grid is e^{mid part}: it must equal the mid primes'
        # log series summed prime by prime on the R = 360 nodes.
        fast = FastCharfn(EnsembleConfig(k=k, alpha=alpha, N=N))
        mids = copy.copy(fast)
        mids._moments = np.zeros_like(fast._moments)
        mids._head_rows = [np.ones_like(fast._head_rows[0])] + [np.zeros_like(r) for r in fast._head_rows[1:]]
        lams = scan_grid_nodes()
        want = mid_log(fast, lams)
        assert np.max(np.abs(np.log(mids.grid(lams)) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_bound_covers_mid_remainder_at_loose_budget(self, table_1e6, monkeypatch, k, alpha):
        # At a budget of 1e-6 the direct head falls to at most 30 primes
        # (p <= 113) and the mid primes' order-5 log remainder is visible
        # against the exact product; the log term of the bound covers it.
        monkeypatch.setattr(ensemble, "_MID_BUDGET", 1e-6)
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        fast = FastCharfn(cfg)
        assert fast.mid_start <= 30
        lams = np.array([0.5, 3.0, 20.0, 100.0, 300.0, 1000.0])
        err = np.abs(np.log(fast.grid(lams) / CharfnEvaluator(cfg).grid(lams)))
        assert np.max(err) > 1e-12
        assert np.all(err <= [fast.truncation_bound(lam) for lam in lams])

    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_build_is_the_bucket_build(self, table_1e6, k, alpha):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        fast = FastCharfn(cfg)
        # the cell layout is chosen per grid call and leaves the build as it was
        vbar, moments, abs4 = reference_build(cfg)
        assert np.array_equal(fast._vbar, vbar)
        assert np.array_equal(fast._moments, moments)
        assert np.array_equal(fast._abs4, abs4)


# ---------------------------------------------------------------------------
# error kernel
# ---------------------------------------------------------------------------


class TestErrorKernel:
    def test_zero_frequency_collapses(self):
        for k, alpha in [(2, 1.0), (3, 1 + 0.5j), (4, -1.2)]:
            cfg = EnsembleConfig(k=k, alpha=alpha, N=100)
            for u in (2.5, 7.0, 40.0):
                value, bound = error_kernel(cfg, u, 0.0)
                assert abs(value) <= 1e-12
                assert bound == 0.0

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1 + 0.5j)])
    def test_value_controlled_by_bound_on_grid(self, k, alpha):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=100)
        us = np.geomspace(2.0, 90.0, 10)
        lams = np.linspace(0.3, 3.0, 10)
        ratios = []
        for u in us:
            for lam in lams:
                value, bound = error_kernel(cfg, float(u), float(lam))
                assert bound > 0
                ratios.append(abs(value) / bound)
        assert max(ratios) < 100.0

    def test_rejects_small_u(self):
        with pytest.raises(DomainError):
            error_kernel(EnsembleConfig(k=2, alpha=1.5, N=100), 1.2, 1.0)
