"""Acceptance gate: one test per shipped guarantee.

Each test re-runs a public route end to end and asserts the stated
tolerance (and, where one is stated, the runtime budget), so ``pytest -v``
prints a single pass/fail line per guarantee.  The narrow unit suites next
to each module cover the internals; nothing here is mocked or patched.

Guarantees covered, in order: the certified worked-example chain; exact
small-ensemble oracle equivalence across the (k, alpha, N) matrix;
structural identities of the marginal factors; convergence of the finite
characteristic function to its limit with the two-feature error fit; the
limiting density suite; special-function property checks; antiderivative
residuals for the remainder catalogue plus the leading-term scaling; and
the spectral-ratio convergence scan for both weight signs.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from kfree import dickman
from kfree.certify import reproduce_example
from kfree.ensemble import CharfnEvaluator, EnsembleConfig, enumerate_ensemble, partition_function
from kfree.primes import prime_count
from kfree.remainders import (
    antiderivative_case,
    antiderivative_names,
    limit_deviation_scan,
    main_term_J111,
)
from kfree.smoothsum import (
    comparison_tolerance,
    get_cutoff,
    smooth_sum_direct,
    smooth_sum_spectral,
    theorem1_ratio_scan,
)
from kfree.specfun import (
    EULER_GAMMA,
    cosine_integral,
    exp_integral_ei,
    sine_integral,
    upper_gamma,
)
from oracles import (
    _coerce_factorization,
    cancellation_check,
    charfn_fourier_from_grid,
    error_kernel,
    laurent_coeffs,
    laurent_partial_sum,
    measure,
    nu_marginal,
    verify_antiderivative,
)

pytestmark = pytest.mark.acceptance

N_LADDER = (10**4, 10**5, 10**6, 10**7, 10**8)


def test_criterion_1_certified_example_chain():
    start = time.perf_counter()
    report = reproduce_example(r=5.0, M=1000)
    elapsed = time.perf_counter() - start
    assert abs(report.midpoint_sum - 0.23821680383626) <= 1e-9
    assert abs(report.curvature_step_bound - 5.2083e-6) <= 1e-10
    assert abs(report.tail - 0.20771652138513) <= 1e-9
    assert report.lower_bound >= 3.0 / 100.0 + 1.0 / 2500.0
    assert report.passed is True
    assert elapsed < 60.0


def test_criterion_2_small_ensemble_oracle_equivalence(rng):
    start = time.perf_counter()
    cutoff = get_cutoff("gaussian")
    checked = 0
    for k, n_value, alpha in itertools.product(
        (2, 3, 4), (5, 7, 10, 13), (1.0, -1.0, 2j / 3, 1 + 1j)
    ):
        if float(k) ** prime_count(n_value) > 2.0**20:
            continue
        cfg = EnsembleConfig(k=k, alpha=alpha, N=n_value)
        elements = [(value, _coerce_factorization(cfg, value)) for value in enumerate_ensemble(cfg)]

        z = partition_function(cfg)
        brute_z = measure(cfg, elements)
        assert abs(z - brute_z) <= 1e-12 * abs(brute_z), (k, alpha, n_value)

        for lam in rng.uniform(-25.0, 25.0, size=10):
            lam = float(lam)
            expectation = (
                sum(
                    complex(alpha) ** fac.omega / value * cmath.exp(1j * lam * fac.xi(n_value))
                    for value, fac in elements
                )
                / z
            )
            got = CharfnEvaluator(cfg).grid([lam])[0]
            assert abs(got - expectation) <= 1e-10 * max(1.0, abs(expectation)), (
                k,
                alpha,
                n_value,
                lam,
            )

        direct = smooth_sum_direct(cfg, cutoff)
        spectral = smooth_sum_spectral(cfg, cutoff)
        assert abs(direct - spectral.value) <= comparison_tolerance(cfg, direct, spectral), (
            k,
            alpha,
            n_value,
        )
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 48
    assert elapsed < 300.0


def _random_weight(rng, radius=1.9):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if 0.05 < abs(z) < radius:
            return z


def test_criterion_3_structural_identities(rng, table_1e6):
    # closed coefficient pattern vs an FFT fit of the same series, and the
    # truncated series vs the exact marginal at u in {10, 50}
    for k, alpha, t in ((2, 1.0, 0), (2, 1 + 1j, 1), (3, -1.3, 1), (4, 0.9j, 0)):
        l_max = 10
        coeffs = laurent_coeffs(k, alpha, t, l_max)
        radius = 2 * abs(alpha) + 2
        theta = 2 * np.pi * np.arange(512) / 512
        x = alpha / (radius * np.exp(1j * theta))
        spectrum = np.fft.ifft(x**t * (1 - x) / (1 - x**k))
        for l in range(l_max + 1):
            fitted = complex(spectrum[l] * radius**l)
            scale = max(1.0, abs(alpha) ** l)
            assert abs(coeffs.coefficients[l] - fitted) <= 1e-10 * scale, (k, alpha, t, l)
        for u in (10.0, 50.0):
            partial = laurent_partial_sum(coeffs, u)
            x = alpha / u
            exact = x**t * (1 - x) / (1 - x**k)
            ratio = abs(alpha) / u
            series_tail = ratio ** (l_max + 1) / (1 - ratio)
            assert abs(partial - exact) <= max(series_tail, 1e-14), (k, alpha, t, u)

    for _ in range(200):
        k = int(rng.integers(2, 7))
        l = int(rng.integers(2, 21))
        alpha = _random_weight(rng, radius=2.0)
        assert abs(cancellation_check(k, alpha, l)) <= 1e-12 * max(1.0, abs(alpha) ** l)

    primes = [int(p) for p in table_1e6.primes if p <= 1000]
    for _ in range(200):
        k = int(rng.integers(2, 6))
        alpha = _random_weight(rng, radius=1.9)
        p = int(primes[int(rng.integers(0, len(primes)))])
        if abs(alpha) >= p:
            alpha = alpha / abs(alpha) * (p - 0.5)
        cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)
        total = sum(nu_marginal(cfg, p, t) for t in range(k))
        assert abs(total - 1.0) <= 1e-14, (k, alpha, p)

    for _ in range(50):
        k = int(rng.integers(2, 5))
        alpha = _random_weight(rng, radius=1.9)
        cfg = EnsembleConfig(k=k, alpha=alpha, N=1000)
        u = float(rng.uniform(2.0, 900.0))
        value, bound = error_kernel(cfg, u, 0.0)
        assert abs(value) <= 1e-12
        assert bound == 0.0


def test_criterion_4_limit_convergence_scan():
    start = time.perf_counter()
    for k, alpha in ((2, 1.0), (2, -1.0), (3, 1 + 0.5j)):
        report = limit_deviation_scan(k, alpha, (0.5, 1.0, 2.0, 5.0), N_LADDER)
        by_lam = {}
        for row in report.rows:
            by_lam.setdefault(row.lam, []).append((row.N, row.magnitude))
        for lam, pairs in by_lam.items():
            magnitudes = [m for _, m in sorted(pairs)]
            assert all(
                later < earlier for earlier, later in zip(magnitudes, magnitudes[1:])
            ), (k, alpha, lam, magnitudes)
        assert report.fit.residual < 0.5, (k, alpha, report.fit)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0


def test_criterion_5_density_suite(rho_grid_1, rho_grid_15):
    us = np.linspace(1.0, 2.0, 101)
    assert np.max(np.abs(dickman.rho_at(rho_grid_1, us) - (1.0 - np.log(us)))) <= 1e-6

    assert abs(dickman.w_integral(rho_grid_1) - 1.0) <= 1e-6

    lams = np.array([0.5, 1.0, 2.0, 5.0])
    for grid in (rho_grid_1, rho_grid_15):
        closed = dickman.charfn_limit_grid(grid.alpha, lams)
        from_density = charfn_fourier_from_grid(grid, lams)
        assert np.max(np.abs(closed - from_density)) <= 1e-4

    lam = 1e4
    target = 1j * math.exp(-EULER_GAMMA)
    assert abs(lam * dickman.charfn_limit(1.0, lam) - target) <= 1e-3


def test_criterion_6_special_function_properties():
    # small-argument expansion of Ei up the imaginary axis
    for tau in (1e-3, 3e-3, 1e-2):
        got = exp_integral_ei(1j * tau).value
        expansion = EULER_GAMMA + 1j * math.pi / 2.0 + math.log(tau)
        assert abs(got - expansion) <= 5.0 * tau

    # the same expansion expressed through the trigonometric integrals
    for tau in (1e-3, 3e-3, 1e-2):
        lhs = 1j * cosine_integral(tau).value - sine_integral(tau).value
        rhs = 1j * (EULER_GAMMA + math.log(tau)) - tau
        assert abs(lhs - rhs) <= 5.0 * tau**2

    # large-argument behavior up the imaginary axis and on the real line
    for w in (50.0, 200.0, 1000.0):
        got = exp_integral_ei(1j * w).value
        lead = 1j * math.pi - 1j * cmath.exp(1j * w) / w
        assert abs(got - lead) <= 3.0 / w**2
        assert abs(cosine_integral(w).value) <= 2.0 / w
        assert abs(sine_integral(w).value - math.pi / 2.0) <= 2.0 / w

    # leading decay of the order-zero upper gamma
    for w in (30.0, 40.0, 60.0):
        lead = math.exp(-w) / w
        assert abs(upper_gamma(0, w).value - lead) <= 0.05 * lead

    # linear shift expansion at both catalogued orders
    c, z = 2.0, 1 - 1j
    for a in (0, -1):
        base = upper_gamma(a, c).value
        for tau in (1e-3, 1e-2):
            got = upper_gamma(a, c + z * tau).value
            linear = base - math.exp(-c) * c ** (a - 1) * z * tau
            assert abs(got - linear) <= 8.0 * tau**2

    # recurrence residual on a 50-point complex grid
    radii = np.geomspace(0.5, 50.0, 17)
    points = [r * cmath.exp(1j * angle) for angle in (0.0, math.pi / 4, math.pi / 2) for r in radii]
    assert len(points) > 50
    residual = max(
        abs(upper_gamma(-1, z).value - cmath.exp(-z) / z + upper_gamma(0, z).value)
        for z in points
    )
    assert residual < 1e-10


def test_criterion_7_antiderivative_residuals():
    x_grid = np.linspace(1.0, 20.0, 115)
    for name in antiderivative_names():
        indices = tuple(3 if part == "j" else int(part) for part in name.split("-")[1:])
        for eps in (1e-3, 1e-2):
            case = antiderivative_case(indices, eps)
            assert verify_antiderivative(case, x_grid) < 1e-5, (name, eps)

    # leading term: deviation from its limit scales like lambda/log N,
    # so squaring N halves it (two-point check, 30% slack); the limit is
    # alpha*(Ci(lam) - gamma + i*Si(lam)) at alpha = 1
    lam = 1.0
    reference = cosine_integral(lam).value - EULER_GAMMA + 1j * sine_integral(lam).value
    dev_small = abs(main_term_J111(EnsembleConfig(2, 1.0, 10**3), lam) - reference)
    dev_large = abs(main_term_J111(EnsembleConfig(2, 1.0, 10**6), lam) - reference)
    ratio = dev_small / dev_large
    assert 1.4 <= ratio <= 2.6, ratio


@pytest.mark.parametrize("alpha", [1.0, -1.0], ids=["alpha=1", "alpha=-1"])
def test_criterion_8_spectral_ratio_convergence(alpha):
    # For alpha = -1 the limiting weight nearly cancels over the whole
    # frequency line and the truncated denominator changes sign near
    # R = 7.9, so the ratio is not expected to settle monotonically; the
    # assertion is kept as shipped and the failure is genuine.
    rows = theorem1_ratio_scan(2, alpha, N_LADDER)
    deviations = [abs(ratio - 1.0) for _, _, ratio in rows]
    assert all(
        later < earlier for earlier, later in zip(deviations, deviations[1:])
    ), deviations
