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
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from kfree import dickman, ensemble, primes as kfree_primes
from kfree._quad import PanelGrid, _cis, gauss_panels
from kfree._threads import one_blas_thread
from kfree.ensemble import (
    CharfnEvaluator,
    EnsembleConfig,
    FastCharfn,
    charfn_for,
    enumerate_ensemble,
    forbidden_alphas,
    partition_constant,
    partition_function,
    threshold_prime,
    _marginal_rows,
)
from kfree.dickman import charfn_limit
from kfree.errors import DegenerateConfigError, DomainError, SizeCapError
from kfree.primes import sieve_primes
from kfree.smoothsum import _symmetric_grid
from oracles import (
    Factorization,
    cancellation_check,
    error_kernel,
    laurent_coeffs,
    laurent_partial_sum,
    marginal_row,
    measure,
    nu_marginal,
    recursive_enumeration,
    trivial_charfn_bound,
)


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
        assert elems == [1, 2, 3, 5, 6, 10, 15, 30]

    def test_cubefree_4_smooth_exact_list(self):
        # 3^pi(4) = 9 elements; in particular 12 = 2^2 * 3 belongs.
        elems = enumerate_ensemble(EnsembleConfig(k=3, alpha=1.0, N=4))
        assert elems == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_single_prime(self):
        elems = enumerate_ensemble(EnsembleConfig(k=2, alpha=1.0, N=2))
        assert elems == [1, 2]

    @pytest.mark.parametrize("k,N", [(2, 7), (3, 5), (4, 3)])
    def test_count_is_k_to_prime_count(self, k, N):
        n_primes = len(sieve_primes(N).primes)
        elems = enumerate_ensemble(EnsembleConfig(k=k, alpha=1.0, N=N))
        assert len(elems) == k**n_primes

    def test_elements_are_kfree_and_smooth(self):
        cfg = EnsembleConfig(k=3, alpha=1.0, N=7)
        for value in enumerate_ensemble(cfg):
            assert type(value) is int
            for p in (2, 3, 5, 7):
                t = 0
                while value % p == 0:
                    value //= p
                    t += 1
                assert t <= cfg.k - 1
            assert value == 1

    @pytest.mark.parametrize("k,N", [(2, 13), (3, 20), (4, 7)])
    def test_matches_recursive_oracle(self, k, N):
        cfg = EnsembleConfig(k=k, alpha=1.0, N=N)
        assert enumerate_ensemble(cfg) == [value for value, _ in recursive_enumeration(cfg)]

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
        assert Factorization(((2, 2),)).xi(2) == 2.0  # x = 4 at k = 3, N = 2: past pi(2) = 1


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

    @pytest.mark.parametrize("k,alpha", [(2, -2.0), (3, 2 * np.exp(2j * np.pi / 3))])
    def test_forbidden_alpha_needs_no_threshold_prime(self, k, alpha):
        # threshold_prime raises on the forbidden set; Z picks its head by a
        # bound instead, and the vanishing p = 2 factor stays in it.  The float
        # 2 e^{2 pi i/3} leaves 1 + x + x^2 at 1e-16, not 0: Z is 2e-17 there,
        # as the all-chunk route gives it
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**5)
        with pytest.raises(DegenerateConfigError):
            threshold_prime(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = partition_function(cfg)
        if k == 2:
            assert z == 0
        else:
            assert abs(z) < 1e-16
            assert z == pytest.approx(np.exp(ensemble._log_product(cfg, lambda p: cfg.alpha / p)), rel=1e-14)

    def test_reads_no_bucketed_tail_pass(self, table_1e7, monkeypatch):
        # Z reads only the plain power sums past 10^4: with FastCharfn's bucketed pass refused, and
        # every cache fresh, it gives the bits it gives after a FastCharfn build from fresh caches
        def fresh_caches():
            monkeypatch.setattr(kfree_primes, "_POWER_CACHE", {})
            monkeypatch.setattr(kfree_primes, "_TAIL_CACHE", {})

        want = {}
        for n in (10**5, 10**7):
            fresh_caches()
            for k, alpha in [(2, 1.0), (3, 1.9j), (235, -1.99)]:
                cfg = EnsembleConfig(k=k, alpha=alpha, N=n)
                FastCharfn(cfg)
                want[cfg] = partition_function(cfg)

        def refuse(*args):
            raise AssertionError("Z ran the bucketed tail pass")

        monkeypatch.setattr(kfree_primes, "_tail_pass", refuse)
        fresh_caches()
        for cfg, z in want.items():
            got = partition_function(cfg)
            assert (got.real.hex(), got.imag.hex()) == (z.real.hex(), z.imag.hex()), cfg

    @pytest.mark.parametrize("alpha", [10.0, 1e6, 3.5 - 1j])
    def test_large_alpha_moves_the_series_cut(self, alpha):
        # the head grows with |alpha| until the series cut is below 1e-17 (past
        # N = 10^6 for alpha = 10^6, which is all head); log Z agrees with the
        # all-chunk route to 1e-14, a relative 1e-14 in Z, which is compared
        # where it is finite (at alpha = 10^6 it overflows on both routes)
        table = sieve_primes(10**6)
        for k in (2, 3):
            cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
            old = ensemble._log_product(cfg, lambda p: cfg.alpha / p)
            assert abs(ensemble._series_log(table, k, cfg.alpha) - old) <= 1e-14
            if abs(alpha) < 100:
                assert partition_function(cfg) == pytest.approx(np.exp(old), rel=1e-14)

    @pytest.mark.parametrize("alpha,past", [(2417.1, 1001), (2417.1 * np.exp(0.3j), 1001), (2417.03, 1 << 22)])
    def test_series_head_past_the_gate(self, monkeypatch, alpha, past):
        # |alpha| = 2417.1 puts P = 16,777,811 between 2^24 and N = 2^24 + past, so the principal logs run
        # over the table up to P, streamed past its head, and the power sums start past N's head.  At
        # |alpha| = 2417.03, P = 16,777,228 lies below the first prime past 2^24, so they start at the end
        # of N's head, on a table not counted yet.  log Z agrees with the all-chunk route to 1e-14 relative,
        # and neither table is sieved whole.
        monkeypatch.setattr(kfree_primes, "_TABLE_CACHE", {})
        monkeypatch.setattr(kfree_primes, "_POWER_CACHE", {})
        N = kfree_primes._PARALLEL_LIMIT + past
        P = ensemble._series_head(2, alpha)
        assert kfree_primes._PARALLEL_LIMIT < P < N
        cfg = EnsembleConfig(k=2, alpha=alpha, N=N)
        got = ensemble._series_log(sieve_primes(N), 2, cfg.alpha)
        assert abs(got - ensemble._log_product(cfg, lambda p: cfg.alpha / p)) <= 1e-14 * abs(got)
        assert all(t._head_limit < t.limit for t in (sieve_primes(N), sieve_primes(P)))

    def test_large_alpha_head_factors(self):
        # |alpha| > 2 puts the first factors far outside |z - 1| < 1/2.
        cfg = EnsembleConfig(k=4, alpha=3.5 - 1.0j, N=13)
        brute = measure(cfg, enumerate_ensemble(cfg))
        z = partition_function(cfg)
        assert abs(z - brute) <= 1e-12 * abs(brute)

    def test_chunked_sum_holds_no_full_length_array(self, table_1e7):
        # Z at N = 10^7 (665k primes) from a cold power-sum pass, whose 2^14-prime
        # chunks hold a (5, chunk) block, peaks at 1.0 MB under tracemalloc,
        # against 48 MB for one full-length pass of complex logs.  One
        # full-length float copy of the primes (5.3 MB) breaks the 4 MB
        # allowance; every prime must still enter the sum.
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**7)
        partition_function(cfg)  # warm lazy caches outside the measurement
        kfree_primes._POWER_CACHE.clear()  # but measure the power-sum pass itself
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

    def test_rejects_repeated_n(self):
        # a repeated N would put two equal abscissae in the Neville tableau
        with pytest.raises(DomainError, match="repeated: 10000"):
            partition_constant(2, 1.0, (10**4, 10**4, 10**5))

    def test_predicted_constant_does_not_depend_on_its_head(self, table_1e7):
        # The prediction sums principal logs up to 10^4 and takes the prime-zeta
        # tails past it, so it reads only the 10^4 table (under tracemalloc,
        # with the head sums cold, it peaks at 0.1 MB).  It
        # agrees to rounding with the same sum written out over every prime up
        # to 10^7, one full-length pass, with the prime-zeta tails past 10^7.
        primes = table_1e7.primes.astype(float)
        for k, alpha in [(2, 1.0), (3, 0.5 - 0.5j)]:
            ensemble._predicted_constant(k, alpha)  # warm lazy caches outside the measurement
            kfree_primes._POWER_CACHE.clear()
            tracemalloc.start()
            try:
                got = ensemble._predicted_constant(k, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            x = alpha / primes
            tail = ensemble._log_coeffs(k, alpha, 5)[1:] @ kfree_primes.prime_zeta_tails(10**7)
            terms = ensemble._clog1p(ensemble._factor_offset(k, x)) - x
            log_full = alpha * ensemble.MERTENS + complex(math.fsum(terms.real), math.fsum(terms.imag)) + tail
            assert abs(got / np.exp(log_full) - 1.0) <= 1e-15


# Z_N, the predicted constant and phi_N at lambda = 0.5, -3, 40, Z_N and phi_N
# at N = 2 * 10^5 (17,984 primes, two chunks).  phi_N was recorded while each
# sum still sliced its own table; Z and the constant were recorded again when
# their primes past 10^4 moved to the tail power sums (moves of at most 1.0e-15
# and 2.7e-15 relative).  Z kept its bits when it moved to the plain power sums;
# the constant was recorded once more when its tails past 10^4 came from the
# prime zeta function instead of 10^7 primes and the E1 rule (moves of 9.9e-14,
# 4.9e-14 and 2.2e-13 relative, onto the 40-digit infinite product: FIXED_LIST).
EULER_RECORDED = [
    (
        2, 1.0, 13.21869971337994 + 0j, 1.0827621932609246 + 0j,
        [0.8598005538349026 + 0.3871083017367207j, 0.025642171652429886 - 0.2316208917219193j,
         0.04800321897276601 + 0.01377786835948809j],
    ),
    (
        3, 0.5 - 0.5j, 0.42858410659451585 - 4.054240092965743j, 1.140077033601161 - 0.2482677732440581j,
        [1.1784712302029443 + 0.3034406259388257j, 0.2107620699926806 - 0.005800625309522298j,
         -0.04738941609281711 + 0.20285636691370015j],
    ),
    (
        4, -1.5, 0.01461233024836676 + 0j, 0.623308460127075 + 0j,
        [0.8445984588978867 - 0.7016986324063049j, -8.20633959988796 + 6.501699266525108j,
         129.28118625092694 - 83.92104842225773j],
    ),
]


@pytest.mark.parametrize("k,alpha,z,constant,phi", EULER_RECORDED, ids=["2-1", "3-0.5-0.5j", "4--1.5"])
def test_euler_product_sums_equal_recorded_values(table_1e7, k, alpha, z, constant, phi):
    cfg = EnsembleConfig(k=k, alpha=alpha, N=2 * 10**5)
    assert partition_function(cfg) == z
    assert ensemble._predicted_constant(k, alpha) == constant
    assert CharfnEvaluator(cfg).grid([0.5, -3.0, 40.0]).tolist() == phi


def _mp_euler(k, alpha, primes, limits, minus_x=False):
    """30-digit prod_{p <= n} (1 + x + ... + x^{k-1}), x = alpha/p, times e^{-sum x} if minus_x,
    for each n in ``limits`` (increasing) over the sorted ``primes``."""
    out = []
    with mpmath.workdps(30):
        a, prod, total = mpmath.mpc(alpha), mpmath.mpf(1), mpmath.mpf(0)
        for p in primes.tolist() + [math.inf]:
            while len(out) < len(limits) and p > limits[len(out)]:
                out.append(prod * (mpmath.exp(-total) if minus_x else 1))
            if p < math.inf:
                x = a / p
                prod *= mpmath.fsum(x**t for t in range(k))
                total += x
    return out


@pytest.fixture(scope="module")
def primes_2e5():
    return sieve_primes(2 * 10**5).primes


# Z's relative distance from 30-digit mpmath over the cases below: 6.9e-16 at
# worst when every prime went through the complex logs, 5.9e-16 now
Z_MPMATH_WORST = 6.9e-16


def test_partition_function_matches_mpmath(primes_2e5):
    worst = 0.0
    for k, alpha in [(2, 1.0), (3, 1 + 0.5j), (2, -1.0), (2, 1.9), (4, 0.5 - 1j)]:
        limits = (10**5, 2 * 10**5)
        for n, want in zip(limits, _mp_euler(k, alpha, primes_2e5, limits)):
            got = partition_function(EnsembleConfig(k=k, alpha=alpha, N=n))
            err = float(abs(mpmath.mpc(got) - want) / abs(want))
            assert err <= 2e-15, (k, alpha, n, err)
            worst = max(worst, err)
    assert worst <= Z_MPMATH_WORST


def _log_coeff(k, d):
    """a_d = (1 - k [k | d]) / d in mpmath."""
    return (1 - (k if d % k == 0 else 0)) / mpmath.mpf(d)


def _mp_log_constant(k, alpha, head=1000, degree=40):
    """40-digit log C = alpha M + sum_p [log z_p - alpha/p], the infinite product: principal logs
    up to ``head``, then sum_{d=2..degree} a_d alpha^d (P(d) - sum_{p<=head} p^-d) with mpmath's own
    prime zeta function P and Mertens constant M (the cut is below 1e-60 for |alpha| < 2)."""
    primes = sieve_primes(head).primes.tolist()
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        logs = mpmath.fsum(mpmath.log(mpmath.fsum((a / p) ** t for t in range(k))) - a / p for p in primes)
        tails = [mpmath.primezeta(d) - mpmath.fsum(mpmath.mpf(p) ** -d for p in primes) for d in range(2, degree + 1)]
        return a * mpmath.mertens + logs + mpmath.fsum(_log_coeff(k, d) * a**d * t for d, t in enumerate(tails, 2))


def _mp_h(alpha, head=1000, degree=40):
    """40-digit H(alpha) = prod_p (1 - 1/p)^alpha (1 - alpha/p)^-1 / Gamma(alpha), by the same split."""
    primes = sieve_primes(head).primes.tolist()
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        logs = mpmath.fsum(a * mpmath.log(1 - mpmath.mpf(1) / p) - mpmath.log(1 - a / p) for p in primes)
        tails = [mpmath.primezeta(d) - mpmath.fsum(mpmath.mpf(p) ** -d for p in primes) for d in range(2, degree + 1)]
        return mpmath.exp(logs + mpmath.fsum((a**d - a) / d * t for d, t in enumerate(tails, 2))) / mpmath.gamma(a)


@functools.lru_cache(maxsize=None)
def _exact_power_sums(n, head=10**4, degree=8):
    """[sum_{head < p <= n} p^-d for d = 1..degree] in 40-digit fixed point: floor(10^40 / p^d), summed as integers."""
    scale, sums = 10**40, [0] * degree
    for p in sieve_primes(n).primes[sieve_primes(head).count() :].tolist():
        q = scale
        for d in range(degree):
            q //= p
            sums[d] += q
    return tuple(mpmath.mpf(t) / scale for t in sums)


def _mp_z(k, alpha, n, head=10**4):
    """30-digit Z_n: principal logs up to ``head``, then sum_{d<=8} a_d alpha^d S_d over the exact power
    sums past it (the cut is below 1e-33 for |alpha| < 2)."""
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        logs = mpmath.fsum(mpmath.log(mpmath.fsum((a / p) ** t for t in range(k))) for p in sieve_primes(head).primes.tolist())
        series = mpmath.fsum(_log_coeff(k, d) * a**d * t for d, t in enumerate(_exact_power_sums(n), 1))
        return mpmath.exp(logs + series)


def test_predicted_constant_matches_mpmath():
    # exp(alpha M + sum_p [log z_p - alpha/p]) against the 40-digit infinite product, a
    # relative 1.7e-16 at worst here (up to 3.6e-13 with the E1 tail past 10^7)
    for k, alpha in [(2, 1.0), (3, 0.5 - 0.5j), (2, -1.9), (4, -1.5), (5, 1.2 + 1.1j)]:
        want = mpmath.exp(_mp_log_constant(k, alpha))
        err = abs(mpmath.mpc(ensemble._predicted_constant(k, alpha)) - want) / abs(want)
        assert float(err) <= 5e-16, (k, alpha, float(err))


# A fixed list for Z_N, the predicted constant C and H(alpha): each is at least as
# close to mpmath as it was before the plain power sums and the prime-zeta tails,
# when Z read FastCharfn's bucketed sums past 10^4 and C and H summed every prime
# up to 10^7 with the E1 tail rule past it.  Those relative distances, rounded up
# in the second digit, are the bounds; today's are in the trailing comments.
FIXED_LIST = [
    ("Z", (2, 1.0, 10**5), 2.9e-16),  # 2.8e-16, the same bits
    ("Z", (3, 1 + 0.5j, 10**5), 3.1e-16),  # 3.0e-16, the same bits
    ("Z", (2, -1.0, 10**5), 7.6e-17),  # 7.5e-17, the same bits
    ("Z", (2, 1.9, 10**5), 6.0e-16),  # 5.9e-16, the same bits
    ("Z", (4, 0.5 - 1j, 10**5), 1.8e-16),  # 1.7e-16, the same bits
    ("Z", (3, 1 + 0.5j, 10**6), 2.3e-16),  # 2.3e-16, the same bits
    ("Z", (2, 1.9, 10**6), 1.7e-16),  # 1.6e-16, the same bits
    ("C", (2, 1.0), 1.0e-13),  # 0.0
    ("C", (3, 1 + 0.5j), 1.3e-13),  # 7.5e-17
    ("C", (2, 1.9), 3.6e-13),  # 0.0
    ("C", (3, 0.5 - 0.5j), 5.0e-14),  # 2.4e-17
    ("C", (4, -1.5), 2.3e-13),  # 0.0
    ("C", (2, -1.9), 3.6e-13),  # 1.6e-16
    ("H", (0.5,), 2.5e-14),  # 5.7e-17
    ("H", (1.5,), 7.4e-14),  # 1.8e-18
    ("H", (1.9,), 1.7e-13),  # 2.8e-18
]


@pytest.mark.parametrize("quantity,args,before", FIXED_LIST, ids=[f"{q}{a}" for q, a, _ in FIXED_LIST])
def test_fixed_list_at_least_as_close_to_mpmath(quantity, args, before):
    if quantity == "Z":
        got, want = partition_function(EnsembleConfig(*args)), _mp_z(*args)
    elif quantity == "C":
        got, want = ensemble._predicted_constant(*args), mpmath.exp(_mp_log_constant(*args))
    else:
        got, want = dickman.h_constant(*args), _mp_h(*args)
    with mpmath.workdps(40):
        err = float(abs(mpmath.mpc(got) - want) / abs(want))
    assert err <= before, err
    if quantity == "H":
        assert err <= 1e-15


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
    for value, fac in recursive_enumeration(cfg):
        weight = complex(cfg.alpha) ** fac.omega / value
        total += weight * np.exp(1j * lam * fac.xi(cfg.N))
    return total / z


def charfn_per_lambda(cfg, lams):
    """phi_N one frequency at a time, as the exact evaluator did before its
    frequency blocks: per lambda and per ``_CHUNK``-prime chunk, the Euler-product
    kernel on the 1-d w = sum_t F_t(p) (e^{i lam t v_p} - 1)."""
    lams = np.asarray(lams, dtype=float)
    out_log = np.zeros(lams.shape, dtype=complex)
    primes = sieve_primes(cfg.N).primes
    for start in range(0, len(primes), ensemble._CHUNK):
        p = primes[start : start + ensemble._CHUNK].astype(float)
        v = np.log(p) / math.log(cfg.N)
        rows = _marginal_rows(cfg.k, cfg.alpha, p)
        for i, lam in enumerate(lams):
            if lam == 0.0:
                continue
            w = np.zeros(p.shape, dtype=complex)
            for t in range(1, cfg.k):
                w += rows[t] * ensemble._cis_minus_one(lam * t * v)
            out_log[i] += ensemble._log_euler(w)
    out = np.exp(out_log)
    out[lams == 0.0] = 1.0
    return out


class TestCharfn:
    @pytest.mark.parametrize(
        "k,alpha,N",
        [(2, 1.0, 30), (2, -1.0, 40), (3, 0.5, 20), (3, 1 + 0.5j, 500), (4, 3.5 - 1j, 200),
         (3, -1.5, 1000)],
    )
    def test_blocked_grid_is_the_per_lambda_product(self, k, alpha, N):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        lams = np.concatenate([[0.0, -0.0, 1e-12], np.linspace(-300.0, 300.0, 1000)])
        block = ensemble._CHUNK // len(sieve_primes(N).primes)
        assert len(lams) % block and np.any(lams < 0) and np.any(lams == 0)
        assert np.array_equal(CharfnEvaluator(cfg).grid(lams), charfn_per_lambda(cfg, lams))

    def test_blocked_grid_across_a_chunk_boundary(self):
        # the first chunk fills _CHUNK, so its block is one frequency
        cfg = EnsembleConfig(k=2, alpha=1.0, N=2 * 10**5)
        assert len(sieve_primes(cfg.N).primes) > ensemble._CHUNK
        lams = [0.0, -7.5, 0.3, 120.0, 1e-9]
        assert np.array_equal(CharfnEvaluator(cfg).grid(lams), charfn_per_lambda(cfg, lams))

    def test_scalar_calls_equal_the_grid(self):
        cfg = EnsembleConfig(k=3, alpha=1 + 0.5j, N=300)
        lams = (0.0, -2.5, 13.0)
        values = CharfnEvaluator(cfg).grid(lams)
        for lam, want in zip(lams, values):
            assert CharfnEvaluator(cfg).grid([lam])[0] == want

    def test_far_branch_row_sums_on_a_block(self):
        # at (2, 1.9, 30) the factor of p = 2 is 1 + w = 0.026 where lambda v_2 = pi
        cfg = EnsembleConfig(k=2, alpha=1.9, N=30)
        p = sieve_primes(cfg.N).primes.astype(float)
        v = np.log(p) / math.log(cfg.N)
        lams = np.array([math.pi / v[0], 0.5, -3.0, 2 * math.pi / v[1], 40.0])
        w = _marginal_rows(cfg.k, cfg.alpha, p)[1] * ensemble._cis_minus_one(lams[:, None] * v)
        assert np.any(np.abs(w) >= 0.5) and np.min(np.abs(1.0 + w)) < 0.03
        got = ensemble._log_euler(w)
        assert got.shape == lams.shape
        assert np.array_equal(got, [ensemble._log_euler(row) for row in w])
        # without the |w| >= 1/2 branch the first row is off by about 3e-14
        assert np.exp(got) == pytest.approx(np.prod(1.0 + w, axis=1), rel=1e-14, abs=0)

    def test_zero_frequency_is_exactly_one(self):
        cfg = EnsembleConfig(k=2, alpha=1 + 1j, N=100)
        assert CharfnEvaluator(cfg).grid([0.0])[0] == 1.0

    def test_matches_enumeration_small(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        got = CharfnEvaluator(cfg).grid([1.0])[0]
        want = charfn_by_enumeration(cfg, 1.0)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "k,alpha,N", [(3, 1 + 1j, 7), (4, 3.5 - 1j, 13), (2, 1.9, 30)]
    )
    def test_matches_enumeration_complex_alpha(self, k, alpha, N):
        # the last two have factors outside the half-disk |z - 1| < 1/2
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        for lam in (0.7, 2.3, -4.1):
            got = CharfnEvaluator(cfg).grid([lam])[0]
            want = charfn_by_enumeration(cfg, lam)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_conjugate_symmetry_real_alpha(self):
        ev = CharfnEvaluator(EnsembleConfig(k=2, alpha=-1.0, N=500))
        for lam in (0.5, 1.7, 3.0):
            assert ev.grid([-lam])[0] == pytest.approx(np.conj(ev.grid([lam])[0]), rel=1e-13)

    def test_near_limit_at_million(self, table_1e6):
        # The absolute gap at N = 10^6 is ~0.098 (the relative gap is still
        # ~12% and only falls below 10% near N = 10^8); the acceptance scan
        # certifies that the gap shrinks monotonically with N.
        got = CharfnEvaluator(EnsembleConfig(k=2, alpha=1.0, N=10**6)).grid([1.0])[0]
        limit = charfn_limit(1.0, 1.0)
        assert abs(got - limit) < 0.10

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1 + 0.5j)])
    def test_trivial_bound(self, k, alpha, rng):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=1000)
        bound = trivial_charfn_bound(cfg)
        ev = CharfnEvaluator(cfg)
        lams = rng.uniform(-50, 50, size=20)
        assert np.all(np.abs(ev.grid(lams)) <= bound * (1 + 1e-12))

    @pytest.mark.parametrize("k,alpha,N", [(2, 1.0, 13), (2, -1.0, 30), (3, 1 + 0.5j, 11), (4, 2j / 3, 7)])
    def test_trivial_bound_on_a_strip(self, k, alpha, N, rng):
        # phi_N at complex lambda summed over the enumerated ensemble stays
        # under the strip bound, which grows with the strip and equals the
        # real-line bound at strip 0; the exact evaluator bounds no truncation.
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        elements = recursive_enumeration(cfg)
        z = partition_function(cfg)
        weights = np.array([complex(alpha) ** fac.omega / value for value, fac in elements])
        xi = np.array([fac.xi(N) for _, fac in elements])
        bounds = [trivial_charfn_bound(cfg, y) for y in (0.0, 0.5, 1.46)]
        plain = partition_function(EnsembleConfig(k=k, alpha=abs(alpha), N=N))
        assert bounds[0] == pytest.approx(abs(plain) / abs(z), rel=1e-15)
        assert bounds[0] < bounds[1] < bounds[2]
        for y, bound in zip((0.5, 1.46), bounds[1:]):
            lams = rng.uniform(-50, 50, size=20) + 1j * y * rng.choice([-1.0, 1.0], size=20)
            phi = np.exp(1j * np.outer(lams, xi)) @ weights / z
            assert np.all(np.abs(phi) <= bound * (1 + 1e-12))
        assert CharfnEvaluator(cfg).truncation_bound(100.0) == 0.0

    @pytest.mark.parametrize("k,alpha,N", [(2, 0.7 + 0.3j, 7), (3, -0.8, 5)])
    def test_exponents_independent_across_primes(self, k, alpha, N):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        elems = recursive_enumeration(cfg)
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

    @pytest.mark.parametrize("alpha, N", [(1.0, 10007), (1.0, 10009), (1e6, 20000)])
    def test_thin_tail_goes_to_the_exact_evaluator(self, alpha, N):
        # one, two and no primes past max(10^4, threshold_prime): FastCharfn refuses
        # the layout before building it, and N = 10037, the third prime, is fast
        cfg = EnsembleConfig(k=2, alpha=alpha, N=N)
        with pytest.raises(DomainError, match="tail primes"):
            FastCharfn(cfg)
        assert type(charfn_for(cfg)) is CharfnEvaluator
        assert type(charfn_for(EnsembleConfig(k=2, alpha=1.0, N=10037))) is FastCharfn


def log_coeffs(k, alpha, p):
    """c_d(p), d = 0..4, of log z_p = sum_d c_d X^d + O(x^5): c_d = a_d x^d with
    x = alpha/p and a_d = (1 - k [k | d]) / d for d >= 1, c_0 = -sum_{d>=1} c_d."""
    c = np.array([(1 - (k if d % k == 0 else 0)) / d * (alpha / p) ** d for d in range(1, 5)])
    return np.concatenate([-c.sum(axis=0, keepdims=True), c])


def mid_primes(fast):
    """v_p and the log-series coefficients c_d(p) of the mid primes, from the prime table."""
    cfg = fast.cfg
    p = sieve_primes(cfg.N).primes[fast.mid_start : fast.split].astype(float)
    return np.log(p) / math.log(cfg.N), log_coeffs(cfg.k, cfg.alpha, p)


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
    while 2 * G <= B and 2 * G * x <= ensemble._CELL_RADIUS:
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
    """sum_{d,j,b} |M[d, j, b]| (lam_max d)^j / j! x_d^(J-j) e^x_d / (J-j)! at x_d = R d / degree,
    R = ``_CELL_RADIUS``, the largest cell offset when cells are wider than one fine bucket,
    plus sum_{d,p} |c_d(p)| x_d^J e^x_d / J! over the mid primes."""
    deg, c = fast._degree, mid_primes(fast)[1]
    x = [ensemble._CELL_RADIUS * d / deg for d in range(deg + 1)]
    return sum(
        (np.abs(fast._moments[d, j]).sum() + (np.abs(c[d]).sum() if j == 0 else 0.0))
        * (lam_max * d) ** j / math.factorial(j)
        * x[d] ** (terms - j) * math.exp(x[d]) / math.factorial(terms - j)
        for d in range(1, deg + 1)
        for j in range(4)
    )


def reference_build(cfg, head_limit=10**4, buckets=4096):
    """vbar, moments and abs4 of the bucket build in one full-length pass, step for step, and the
    moments' scales, the same sums over the terms' absolute values: the old bucket index (the
    searchsorted of v in the edges) gives the runs, and M[d, j, b] = a_d alpha^d S[d, j, b] with
    S[d, j, b] = sum_{p in b} p^-d (v_p - vbar_b)^j."""
    primes = sieve_primes(cfg.N).primes
    primes = primes[np.searchsorted(primes, max(head_limit, threshold_prime(cfg)), side="right") :]
    v = np.log(primes) / math.log(cfg.N)
    edges = np.linspace(v.min(), v.max() * (1 + 1e-12), buckets + 1)
    idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, buckets - 1)
    runs = np.flatnonzero(np.diff(idx, prepend=-1))
    full, counts = idx[runs], np.diff(np.append(runs, v.size))
    vbar = np.zeros(buckets)
    vbar[full] = np.add.reduceat(v, runs) / counts
    inv = 1.0 / primes
    dv = v - vbar[idx]
    terms = np.empty((4, 5, v.size))
    terms[:, 0] = np.cumprod(np.broadcast_to(inv, (4, v.size)), axis=0)
    for j in range(1, 5):
        terms[:, j] = terms[:, j - 1] * dv
    S, mags = np.zeros((4, 5, buckets)), np.zeros((4, 5, buckets))
    S[:, :, full] = np.add.reduceat(terms, runs, axis=2)
    mags[:, :, full] = np.add.reduceat(np.abs(terms), runs, axis=2)
    coef = np.array([(1.0 / d - (cfg.k / d if d % cfg.k == 0 else 0.0)) * cfg.alpha**d for d in range(1, 5)])
    moments, scales = np.zeros((5, 4, buckets), dtype=complex), np.zeros((5, 4, buckets))
    moments[1:] = coef[:, None, None] * S[:, :4]
    moments[0, 0] = -moments[1:, 0].sum(axis=0)
    scales[1:] = np.abs(coef)[:, None, None] * mags[:, :4]
    scales[0, 0] = scales[1:, 0].sum(axis=0)
    abs4 = np.append(0.0, np.abs(coef) * S[:, 4].sum(axis=1))
    return vbar, moments, abs4, scales


CELL_CASES = [(2, 1.0), (2, -1.0), (3, 1 + 0.5j), (4, 3.5 - 1j)]
MID_CASES = [*CELL_CASES, (3, -1.5)]


def unfactored_grid(fast, lams, block=256):
    """FastCharfn.grid with every phase from one cos/sin of lambda * v, as before panel phases."""
    out = np.empty(lams.shape, dtype=complex)
    half, centres, cell_moments = fast._cells(np.max(np.abs(lams), initial=0.0))
    for start in range(0, lams.size, block):
        lam = lams[start : start + block]
        base = _cis(np.outer(lam, centres))
        phase = base.copy()
        acc = np.full(lam.shape, complex(fast._moments[0, 0].sum() + fast._mid_c[0].sum()))
        for d in range(1, fast._degree + 1):
            if d > 1:
                phase *= base
            t = 1j * lam * (d * half)
            acc += functools.reduce(lambda s, m_n: s * t + m_n, (phase @ cell_moments[d - 1]).T[::-1])
        hphase = _cis(np.outer(lam, fast._head_v))
        z = np.zeros_like(hphase)
        for row in fast._head_rows[:0:-1]:
            z += row
            z *= hphase
        z += fast._head_rows[0]
        out[start : start + lam.size] = np.prod(z, axis=1) * np.exp(acc)
    out[lams == 0.0] = 1.0
    return out


def scan_grid_nodes():
    """Every 8th node of the R = 360 panel grid and both ends (1441 of 11,520).

    The cell layout depends on max|lambda| alone, so these nodes see the
    layout of the whole grid; the per-bucket oracle on all 11,520 nodes
    would take about 4 s per case.
    """
    pts = _symmetric_grid(360.0).points
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
        got, want = fast.grid([300.0])[0], CharfnEvaluator(cfg).grid([300.0])[0]
        assert abs(want) > 50.0
        assert abs(got / want - 1.0) <= math.expm1(fast.truncation_bound(300.0)) + 1e-13

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_log_coeffs_match_mpmath_taylor(self, k, rng):
        # The X^d coefficient of log sum_t F_t X^t is a_d x^d, d >= 1: against
        # 50-digit Taylor coefficients at X = 0 for complex |x| <= 1/2, and the
        # series cut at degree 4 stays within the remainder bound on |X| = 1.
        xs = [0.5, -0.5, 0.5j, 0.3 - 0.4j] + [complex(*rng.uniform(-0.35, 0.35, 2)) for _ in range(4)]
        for x in xs:
            got = ensemble._log_coeffs(k, x)
            with mpmath.workdps(50):
                xm = mpmath.mpc(x)
                F = [xm**t * (1 - xm) / (1 - xm**k) for t in range(k)]
                want = mpmath.taylor(lambda X: mpmath.log(mpmath.polyval(F[::-1], X)), 0, 4)[1:]
                for X in (mpmath.expjpi(s) for s in (0.25, 0.5, 1.0, -0.7)):
                    cut = sum(a * (X ** (d + 1) - 1) for d, a in enumerate(got))
                    err = abs(mpmath.log(mpmath.polyval(F[::-1], X)) - cut)
                    assert err <= ensemble._log_remainder(k, abs(x)) * (1 + 1e-12)
            for g, w in zip(got, want):
                assert abs(g - complex(w)) <= 1e-14 * abs(complex(w))

    @pytest.mark.parametrize("buckets", [256, 4096])
    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (3, 1 + 0.5j), (4, 3.5 - 1j)])
    def test_build_independent_of_chunking(self, table_1e6, monkeypatch, k, alpha, buckets):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        ref = FastCharfn(cfg, buckets=buckets)
        for chunk in (1000, len(table_1e6.primes) + 1):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            got = FastCharfn(cfg, buckets=buckets)
            assert np.array_equal(got._vbar, ref._vbar)
            for d in range(ref._moments.shape[0]):
                scale = np.max(np.abs(ref._moments[d]))
                assert np.max(np.abs(got._moments[d] - ref._moments[d])) <= 1e-13 * scale
            np.testing.assert_allclose(got._abs4, ref._abs4, rtol=1e-13, atol=0.0)
            for lam in (5.0, 300.0):
                assert got.truncation_bound(lam) == pytest.approx(ref.truncation_bound(lam), rel=1e-13)

    @pytest.mark.parametrize("k", [2, 8])
    def test_build_holds_no_full_length_complex_array(self, table_1e7, k):
        # Over the 663k tail primes at N = 10^7 the build keeps v_p (8 bytes
        # a prime, 5.3 MB) plus group-sized real temporaries, at every k.
        # One more full-length array of 8 bytes a prime, or a k-sized
        # temporary per prime, breaks the 8 MB allowance.
        cfg = EnsembleConfig(k=k, alpha=1.0, N=10**7)
        fast = FastCharfn(cfg)  # warm lazy caches outside the measurement
        tracemalloc.start()
        try:
            FastCharfn(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tail = len(table_1e7.primes) - fast.split
        assert peak < 8 * tail + 8 * 2**20

    def test_truncation_bound_tracks_coarser_settings(self, table_1e6, monkeypatch):
        # With a smaller head and fewer buckets the truncation term dominates
        # roundoff, so the bound must cover the observed error on its own.
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**6)
        lams = np.array([0.5, 1.0, 2.0, 5.0])
        monkeypatch.setattr(ensemble, "_FAST_HEAD_LIMIT", 300)
        fast = FastCharfn(cfg, buckets=256)
        exact = CharfnEvaluator(cfg)
        diff = np.max(np.abs(fast.grid(lams) - exact.grid(lams)))
        bound = fast.truncation_bound(5.0)
        assert 1e-13 < bound < 1e-4
        assert diff <= bound

    def test_zero_frequency_exact(self, table_1e6):
        fast = FastCharfn(EnsembleConfig(k=3, alpha=1 + 0.5j, N=10**6))
        assert fast.grid([0.0])[0] == 1.0

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", [(5, 1.0), (5, 1 + 0.5j), (6, 1.0), (6, -1.5), (8, 1.0)])
    def test_large_k_agrees_with_exact_within_bound(self, table_1e6, k, alpha, N):
        # Nothing in the expansion is specific to small k: the log series is
        # of order 4 in w for every k, so k = 5, 6 and 8 meet the same bound.
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        fast = FastCharfn(cfg)
        lams = np.array([0.5, 3.0, 20.0, 100.0, 300.0])
        ratio = fast.grid(lams) / CharfnEvaluator(cfg).grid(lams)
        for lam, r in zip(lams, ratio):
            assert abs(r - 1.0) <= math.expm1(fast.truncation_bound(lam)) + 1e-13

    @pytest.mark.parametrize("k,alpha", [(2, 1.0), (2, -1.0), (3, 1 + 0.5j)])
    def test_panel_phases_match_plain_nodes(self, table_1e6, k, alpha):
        # A panel grid's phases e^{i m v} e^{i t v} give the values of its
        # plain nodes, on every 32nd panel of the R = 8, 360 and 1024 grids
        # and of their half-resolution siblings (the last panel keeps
        # max|lambda|, so the layout).  Either path rounds each phase to
        # about eps |lambda v|, so the tolerance grows with max|lambda| past
        # 360.  On plain nodes the grid is the unfactored evaluation, bit for
        # bit, when both run their GEMMs on one BLAS thread.
        fast = FastCharfn(EnsembleConfig(k=k, alpha=alpha, N=10**6))
        for R in (8.0, 360.0, 1024.0):
            for grid in (_symmetric_grid(R), gauss_panels(-R, R, 2 * max(1, math.ceil(R) // 2), 16)):
                grid = PanelGrid(np.append(grid.centres[:-1:32], grid.centres[-1]), grid.offsets)
                plain = fast.grid(grid.points)
                assert np.max(np.abs(fast.grid(grid) / plain - 1.0)) <= 1e-14 * max(1.0, R / 360.0)
                with one_blas_thread():
                    reference = unfactored_grid(fast, grid.points)
                assert np.array_equal(plain, reference)

    @pytest.mark.parametrize("k,alpha", [(2, -1.0), (3, 1 + 0.5j)])
    def test_dense_grid_across_blocks(self, table_1e6, k, alpha):
        # Over 600 sorted nodes on [-300, 300]: the frequency blocks must not
        # change a bit of the values, not even a block of one node (or the
        # lone last node of 257), lambda = 0 stays exactly 1, and the spot
        # frequencies match the exact per-prime product.
        spots = np.array([0.5, 3.0, 20.0, 100.0, 300.0])
        lams = np.unique(np.concatenate([np.linspace(-300.0, 300.0, 601), spots]))
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        fast = FastCharfn(cfg)
        ref = fast.grid(lams, block=256)
        for block in (1, 7):
            assert np.array_equal(fast.grid(lams, block=block), ref)
        assert np.array_equal(fast.grid(lams[:257]), ref[:257])
        assert ref[lams == 0.0][0] == 1.0
        exact = CharfnEvaluator(cfg).grid(spots)
        assert np.max(np.abs(ref[np.searchsorted(lams, spots)] - exact)) <= 1e-10

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", CELL_CASES)
    def test_cells_match_per_bucket_sum(self, table_1e6, k, alpha, N):
        # On the R = 360 panel grid (95 cells, 31 of them mid, at N = 10^6) and
        # on 2049 nodes up to 1024 (380 cells), the cell evaluation gives the per-bucket
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
        # Adding lambda = +-1000 changes the layout (64 -> 256 fine-bucket cells) and
        # nothing else: on the shared nodes the values move within the bound,
        # and +1000 and -1000 give the same values.
        fast = FastCharfn(EnsembleConfig(k=2, alpha=-1.0, N=10**6))
        lams = scan_grid_nodes()
        ref = fast.grid(lams)
        plus = fast.grid(np.append(lams, 1000.0))[:-1]
        minus = fast.grid(np.append(lams, -1000.0))[:-1]
        assert np.max(np.abs(plus / minus - 1.0)) <= 1e-13
        assert 0.0 < np.max(np.abs(plus / ref - 1.0)) <= math.expm1(2 * fast.truncation_bound(360.0)) + 1e-13

    def test_cell_counts_at_a_million(self, table_1e6):
        # cells of radius _CELL_RADIUS = 4: on the R = 360 grid 64 fine-bucket cells and
        # 31 mid ones, at R = 1024 256 and 124; the grid's work scales with their number
        fast = FastCharfn(EnsembleConfig(k=2, alpha=1.0, N=10**6))
        assert [fast._cells(lam)[1].size for lam in (360.0, 1024.0)] == [95, 380]

    @pytest.mark.parametrize("buckets", [512, 700])
    def test_tail_narrower_than_the_mid_span_is_refused(self, buckets):
        # at N = 10,038 (k = 2, alpha = 1) the mid primes span about 740 tail widths: a layout of
        # fewer buckets would put more cells below v0 than it has buckets, so the build refuses
        # it before its tail pass, while 1024 buckets build
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10_038)
        with pytest.raises(DomainError, match="tail widths"):
            FastCharfn(cfg, buckets=buckets)
        assert FastCharfn(cfg, buckets=1024).split < len(sieve_primes(cfg.N))

    def test_width_guard_spares_the_default_cutoff(self, table_1e6):
        # at the head cutoff 10^4 the mid span is at most 740 tail widths here (N = 10,038,
        # k = 2, alpha = 1), so charfn_for takes FastCharfn wherever _tail_split allows it
        for k, alpha in MID_CASES:
            for N in [*range(10037, 10237), 10**5, 10**6]:
                cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
                fast = ensemble._tail_split(cfg, sieve_primes(N)) is not None
                assert type(charfn_for(cfg)) is (FastCharfn if fast else CharfnEvaluator)

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("k,alpha", MID_CASES)
    def test_direct_head_is_cut_by_mid_budget(self, table_1e6, k, alpha, N):
        # The mid primes primes[mid_start:split] are the longest run below the
        # fine buckets whose log remainder sum 2 (k - 1) |x|^5 / (5 (1 - |x|))
        # fits the budget; every prime <= d* stays in the direct head.
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        fast = FastCharfn(cfg)
        primes = sieve_primes(N).primes
        first = int(np.searchsorted(primes, threshold_prime(cfg), side="right"))
        assert fast._head_v.size == fast.mid_start >= first
        r = np.minimum(abs(alpha) / primes[: fast.split], 0.5)
        rem = 2.0 * (k - 1) * r**5 / (5.0 * (1.0 - r))
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
        vbar, moments, abs4, scales = reference_build(cfg)
        assert np.array_equal(fast._vbar, vbar)
        assert np.array_equal(fast._moments[1], moments[1])
        # the d >= 2 sums come from a series in the d = 1 rows; they, M[0] = -sum_d M[d, 0] and abs4
        # hold to 1e-14 of the absolute sums of their terms (abs4's terms are all >= 0)
        rows = [0, 2, 3, 4]
        assert np.all(np.abs(fast._moments[rows] - moments[rows]) <= 1e-14 * scales[rows])
        assert np.all(np.abs(fast._abs4 - abs4) <= 1e-14 * abs4)


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
