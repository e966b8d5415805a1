"""Tests for cutoff descriptors and the three smooth-sum routes.

Oracles: hand enumeration for the indicator sum, independent adaptive
quadrature for every transform closed form, cross-route agreement between
direct summation and the spectral identity, and a frozen high-precision
value for the bump profile's integral (30-digit Gauss-Legendre, cross-checked
against scipy.quad at 8e-16).
"""

import cmath
import dataclasses
import itertools
import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from kfree import smoothsum
from kfree._quad import PanelGrid, complex_quad, gauss_panels
from kfree.ensemble import (
    CharfnEvaluator,
    EnsembleConfig,
    FastCharfn,
    _positive_product,
    charfn_for,
    partition_constant,
    partition_function,
)
from kfree.errors import DegenerateConfigError, DomainError, ToleranceError
from kfree.primes import prime_count
from kfree.smoothsum import (
    CutoffDescriptor,
    asymptotic_prediction,
    builtin_cutoffs,
    error_region,
    get_cutoff,
    smooth_sum_direct,
    smooth_sum_spectral,
    theorem1_ratio_scan,
)
from kfree.smoothsum import _bump_nodes, _gauss_transform, _panel_rule, _symmetric_grid, bump_transform
from oracles import corollary1_rate, factorization_direct_sum, fourier_transform

TWO_PI = 2.0 * math.pi

# integral of e^{-1/(1-u^2)} over [-1, 1], frozen at 30-digit precision
BUMP_MASS = 0.443993816168079437823


def half_resolution_grid(R):
    """Half the panels of the spectral route's grid over [-R, R], 16 nodes each."""
    return gauss_panels(-R, R, 2 * max(1, math.ceil(R) // 2), 16)


def constant_one_cutoff() -> CutoffDescriptor:
    """f == 1 everywhere; only the direct route ever evaluates it."""
    return CutoffDescriptor(
        name="one",
        evaluate=lambda u: 1.0,
        transform=lambda lams: np.full(np.size(lams), complex("nan")),
        eta=0.0,
        decay_constant=1.0,
        support=None,
        tail_integral=lambda R: math.inf,
    )


def combination_cutoff(a, f, b, g) -> CutoffDescriptor:
    return CutoffDescriptor(
        name="combo",
        evaluate=lambda u: a * f.evaluate(u) + b * g.evaluate(u),
        transform=lambda lams: np.full(np.size(lams), complex("nan")),
        eta=0.0,
        decay_constant=1.0,
        support=None,
        tail_integral=lambda R: math.inf,
    )


# (k, alpha, N, cutoff): the criterion-2 matrix, the route-agreement cases
# and the three spectral sums of the small CLI benchmark
QUADRATURE_CASES = [
    (k, alpha, N, "gaussian")
    for k, N, alpha in itertools.product((2, 3, 4), (5, 7, 10, 13), (1.0, -1.0, 2j / 3, 1 + 1j))
    if float(k) ** prime_count(N) <= 2.0**20
] + [
    (k, alpha, N, name)
    for k, alpha, N in [(2, 1.0, 10), (2, -1.0, 13), (3, 1 + 1j, 7), (4, 2j / 3, 7)]
    for name in ("bump", "bump01", "gaussian")
] + [(2, 1.0, 30, "gaussian"), (3, 0.5, 20, "gaussian"), (2, -1.0, 40, "bump01")]

# (k, alpha, N, cutoff, target) for the panel rule: the QUADRATURE_CASES at the
# spectral route's default tol, and the benchmark's scan-grid scans (alpha = +-1
# turned by the seed's phase draw in [-pi/6, pi/6]; seed 0 turns none) at seeds
# 0, 1 and 2, whose target, 1e-9 |Z|, is taken as None
PANEL_RULE_CASES = [(k, alpha, N, name, 1e-9) for k, alpha, N, name in QUADRATURE_CASES] + [
    (2, sign * turn, 10**6, "bump", None)
    for turn in [1.0] + [cmath.exp(1j * random.Random(seed).uniform(-math.pi / 6, math.pi / 6)) for seed in (1, 2)]
    for sign in (1, -1)
]


class TestBuiltinCutoffs:
    def test_at_least_indicator_bump_gaussian(self):
        names = {f.name for f in builtin_cutoffs()}
        assert {"indicator", "bump", "gaussian"} <= names

    def test_get_cutoff_roundtrip_and_unknown(self):
        assert get_cutoff("bump").name == "bump"
        with pytest.raises(DomainError, match="available"):
            get_cutoff("triangle")

    def test_indicator_transform_at_zero(self):
        f = get_cutoff("indicator")
        assert f.transform([0.0])[0] == pytest.approx(1.0 / TWO_PI, abs=1e-16)

    def test_indicator_transform_vanishes_at_two_pi(self):
        f = get_cutoff("indicator")
        assert abs(f.transform([TWO_PI])[0]) < 1e-16
        assert abs(fourier_transform(f, TWO_PI, tol=1e-10)) < 1e-9

    def test_bump_transform_at_zero_matches_frozen_mass(self):
        f = get_cutoff("bump")
        assert f.transform([0.0])[0].real == pytest.approx(BUMP_MASS / TWO_PI, abs=1e-13)
        assert fourier_transform(f, 0.0, tol=1e-10).real == pytest.approx(
            BUMP_MASS / TWO_PI, abs=1e-9
        )

    def test_bump_envelope_on_unit_to_hundred_grid(self):
        f = get_cutoff("bump")
        lams = np.linspace(1.0, 100.0, 397)
        vals = np.abs(f.transform_grid(lams))
        envelope = 1.5 / math.pi * np.exp(-np.sqrt(lams)) * lams**-0.75
        assert np.all(vals <= envelope)

    def test_bump_transform_real_and_even(self):
        f = get_cutoff("bump")
        lams = np.array([0.0, 0.3, 1.7, 4.4, 12.0, 33.0])
        vals = f.transform_grid(lams)
        assert np.max(np.abs(vals.imag)) == 0.0
        flipped = f.transform_grid(-lams)
        np.testing.assert_allclose(flipped, vals, rtol=0, atol=1e-16)

    def test_bump_transform_independent_of_batching(self):
        # A lone node would make a dot and a block of plain nodes (one shift) a
        # gemv, each summing the Gauss terms in its own order; repeated to two
        # rows, every product is a gemm, and a node's value ignores its batch.
        lams = np.linspace(-300.0, 300.0, 1201)
        assert np.array_equal([bump_transform(np.array([lam]))[0] for lam in lams], bump_transform(lams))

    def test_bump_batch_blocked_on_distinct_magnitudes(self):
        # 49,536 transform nodes, the R = 8 and R = 1024 panel grids and
        # their half-resolution siblings: the transform is exactly even, and
        # it peaks well under 24 MiB under tracemalloc where the
        # whole (nodes x 2000) cos matrix and its argument took 32 kB a node
        # (1.6 GB here, 62.5 MB for 2048 nodes).  Oracle: the same Gauss sum
        # in 40-digit mpmath, at the six nodes where the factored grid path
        # and the plain-node path differ most; both stay within 2e-16 there
        # (about 3e-15 of max|fhat|), which the unfactored cos product also
        # meets (it is off by up to 1.6e-16 at these nodes).
        grids = [g for R in (8.0, 1024.0) for g in (_symmetric_grid(R), half_resolution_grid(R))]
        lams = np.concatenate([g.points for g in grids])
        assert lams.size == 49536
        tracemalloc.start()
        try:
            got = np.concatenate([bump_transform(g) for g in grids])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        mirrored = [PanelGrid(-g.centres, -g.offsets) for g in grids]
        assert np.array_equal(np.concatenate([bump_transform(g) for g in mirrored]), got)
        plain = bump_transform(lams)
        ends = np.cumsum([0] + [g.size for g in grids])
        for g, lo, hi in zip(grids, ends, ends[1:]):  # a symmetric grid reversed is the grid negated
            assert np.array_equal(g.points[::-1], -g.points)
            assert np.array_equal(got[lo:hi][::-1], got[lo:hi])
            assert np.array_equal(plain[lo:hi][::-1], plain[lo:hi])
        x, wg = _bump_nodes()
        with mpmath.workdps(40):
            for i in np.argsort(-np.abs(got - plain))[:6]:
                lam = mpmath.mpf(float(lams[i]))
                want = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.cos(lam * float(u)) for u, w in zip(x, wg)) / mpmath.pi
                assert abs(got[i].real - want) <= 2e-16
                assert abs(plain[i].real - want) <= 2e-16

    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    def test_panel_grid_matches_its_plain_nodes(self, name):
        # The factored phases of a panel grid give the values of its plain
        # nodes, on every 16th panel of the R = 8, 360 and 1024 grids and of
        # their half-resolution siblings: each path is within 2e-16 of the
        # mpmath Gauss sum (see above), so the two differ by at most twice that.
        f = get_cutoff(name)
        for R in (8.0, 360.0, 1024.0):
            for grid in (_symmetric_grid(R), half_resolution_grid(R)):
                grid = PanelGrid(np.append(grid.centres[:-1:16], grid.centres[-1]), grid.offsets)
                assert np.max(np.abs(f.transform_grid(grid) - f.transform_grid(grid.points))) <= 4e-16

    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    def test_batch_matches_single_and_quadrature(self, name):
        f = get_cutoff(name)
        for lam in (0.0, 0.7, 3.3, 11.5):
            batch = f.transform_grid(np.array([lam]))[0]
            oracle = fourier_transform(f, lam, tol=1e-10)
            assert batch == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_quadrature_converges_at_high_frequency(self):
        # e^{-lam^2/2} / sqrt(2pi) is below 1e-540 here, so the quadrature
        # returns the cancellation of a window of the Gaussian against e^{-i lam u}
        f = get_cutoff("gaussian")
        for lam in (50.0, 58.0, 60.0):
            assert abs(fourier_transform(f, lam, tol=1e-10) - _gauss_transform([lam])[0]) <= 1e-16

    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    def test_decay_class_membership_spot_check(self, name):
        f = get_cutoff(name)
        lams = np.geomspace(0.5, 200.0, 60)
        vals = np.abs(f.transform_grid(lams))
        envelope = f.decay_constant / (1.0 + lams**f.eta)
        assert np.all(vals <= envelope)

    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    def test_tail_integral_decreasing(self, name):
        f = get_cutoff(name)
        tails = [f.tail_integral(R) for R in (2.0, 8.0, 32.0, 128.0)]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert tails[-1] >= 0.0

    def test_indicator_tail_is_reciprocal_envelope(self):
        f = get_cutoff("indicator")
        assert f.tail_integral(10.0) == pytest.approx(4.0 / (math.pi * 10.0))


class TestDirectRoute:
    def test_indicator_hand_sum(self):
        # elements of the squarefree 5-smooth ensemble with log x <= log 5
        # are {1, 2, 3, 5}; the closed right endpoint keeps x = 5
        cfg = EnsembleConfig(k=2, alpha=1.0, N=5)
        value = smooth_sum_direct(cfg, get_cutoff("indicator"))
        assert value.real == pytest.approx(61.0 / 30.0, abs=1e-15)
        assert value.imag == 0.0

    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.7 + 0.3j])
    def test_constant_cutoff_reduces_to_partition_function(self, alpha):
        cfg = EnsembleConfig(k=2, alpha=alpha, N=5)
        value = smooth_sum_direct(cfg, constant_one_cutoff())
        assert value == pytest.approx(partition_function(cfg), rel=1e-14)

    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5, 1 + 0.3j])
    @pytest.mark.parametrize("k,N", [(2, 31), (3, 20), (4, 7)])
    def test_bit_identical_to_factorization_sum(self, k, N, alpha, name):
        # x = N (or 20 = 2^2 5 at k = 3) lands on the indicator's jump at xi = 1
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        f = get_cutoff(name)
        assert smooth_sum_direct(cfg, f) == factorization_direct_sum(cfg, f)

    def test_shifted_bump_cross_route(self):
        cfg = EnsembleConfig(k=3, alpha=1 + 1j, N=7)
        direct = smooth_sum_direct(cfg, get_cutoff("bump01"))
        spectral = smooth_sum_spectral(cfg, get_cutoff("bump01"))
        assert abs(direct - spectral.value) < 1e-6


class TestSpectralRoute:
    def test_bump_cross_route_within_micro(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        direct = smooth_sum_direct(cfg, get_cutoff("bump"))
        spectral = smooth_sum_spectral(cfg, get_cutoff("bump"))
        assert abs(direct - spectral.value) < 1e-6
        assert abs(direct - spectral.value) <= spectral.declared_tolerance

    @pytest.mark.parametrize(
        "k,alpha,N",
        [(2, 1.0, 10), (2, -1.0, 13), (3, 1 + 1j, 7), (4, 2j / 3, 7)],
    )
    @pytest.mark.parametrize("name", ["bump", "bump01", "gaussian"])
    def test_route_agreement_within_declared_tolerance(self, k, alpha, N, name):
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        direct = smooth_sum_direct(cfg, get_cutoff(name))
        spectral = smooth_sum_spectral(cfg, get_cutoff(name))
        assert abs(direct - spectral.value) <= spectral.declared_tolerance

    def test_indicator_agreement_within_slow_tail_bound(self):
        # eta = 1 decay: agreement holds only up to the reported ~1/R tail
        # envelope, which shrinks as R grows
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        f = get_cutoff("indicator")
        direct = smooth_sum_direct(cfg, f)
        gaps, bounds = [], []
        for R in (25.0, 100.0):
            spectral = smooth_sum_spectral(cfg, f, R=R)
            gaps.append(abs(direct - spectral.value))
            bounds.append(spectral.declared_tolerance)
        assert gaps[0] <= bounds[0]
        assert gaps[1] <= bounds[1]
        assert bounds[1] < bounds[0]
        assert gaps[1] < gaps[0]

    def test_atom_correction_needs_no_common_denominator(self):
        # x = 1 sits on the indicator's jump at xi = 0 with mass alpha^0 / 1,
        # and x = N = 2^6 5^6 is not square-free; no product of p^(k-1) over
        # the 78,498 primes <= N is needed to weigh a single atom
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**6)
        f = get_cutoff("indicator")
        assert smoothsum._atom_correction(cfg, f) == 0.5
        assert math.isfinite(abs(smooth_sum_spectral(cfg, f, R=100.0).value))

    def test_integrand_at_zero_frequency(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        f = get_cutoff("bump")
        z = partition_function(cfg)
        phi0 = CharfnEvaluator(cfg).grid([0.0])[0]
        assert phi0 == 1.0 + 0.0j
        assert z * phi0 * f.transform([0.0])[0] == z * f.transform([0.0])[0]

    def test_transform_cache_tells_apart_cutoffs_sharing_a_name(self):
        # a custom cutoff named like a builtin must not reuse the builtin's transform
        cfg = EnsembleConfig(k=2, alpha=1.0, N=30)
        f = get_cutoff("gaussian")
        base = smooth_sum_spectral(cfg, f, R=8.0).value
        doubled = dataclasses.replace(
            f, evaluate=lambda u: 2.0 * f.evaluate(u), transform=lambda lams: 2.0 * f.transform(lams)
        )
        assert doubled.name == "gaussian"
        assert smooth_sum_spectral(cfg, doubled, R=8.0).value / base == pytest.approx(2.0, rel=1e-12)

    def test_explicit_R_is_honored(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        spectral = smooth_sum_spectral(cfg, get_cutoff("bump"), R=30.0)
        assert spectral.R == 30.0

    def test_auto_R_meets_tolerance_budget(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        spectral = smooth_sum_spectral(cfg, get_cutoff("gaussian"), tol=1e-9)
        assert spectral.tail_bound <= 0.5e-9

    def test_indicator_auto_R_refused(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10)
        with pytest.raises(ToleranceError, match="tail") as info:
            smooth_sum_spectral(cfg, get_cutoff("indicator"))
        # the last R tried, with its own tail bound, and the way out
        f = get_cutoff("indicator")
        z_abs = abs(partition_function(cfg))
        assert f"tail bound {z_abs * f.tail_integral(4096.0):.2e}" in str(info.value)
        assert "at R = 4096," in str(info.value)
        assert "explicit R" in str(info.value)

    @pytest.mark.parametrize("k,alpha,N,name", [(2, -1.0, 40, "bump"), (3, 1 + 0.5j, 10**5, "gaussian")])
    def test_tail_bound_is_z_at_abs_alpha(self, k, alpha, N, name, monkeypatch):
        # the tail bound takes Z(k, |alpha|, N) from the partition function, not a second Euler
        # product over every prime: _positive_product runs only for the panel rule's strips
        strips, product = [], smoothsum._positive_product
        monkeypatch.setattr(smoothsum, "_positive_product", lambda c, y: strips.append(y) or product(c, y))
        cfg, f = EnsembleConfig(k=k, alpha=alpha, N=N), get_cutoff(name)
        spectral = smooth_sum_spectral(cfg, f)
        assert strips and 0.0 not in strips
        z_abs = abs(partition_function(EnsembleConfig(k=k, alpha=abs(alpha), N=N)))
        assert spectral.tail_bound == z_abs * f.tail_integral(spectral.R)
        assert z_abs == pytest.approx(product(cfg, 0.0), rel=1e-14)

    def test_vanishing_partition_function_is_degenerate(self):
        cfg = EnsembleConfig(k=2, alpha=-2.0, N=5)
        with pytest.raises(DegenerateConfigError):
            smooth_sum_spectral(cfg, get_cutoff("bump"))

    @pytest.mark.parametrize("k,alpha,N,name", QUADRATURE_CASES)
    def test_quadrature_error_bounds_a_finer_rule(self, k, alpha, N, name):
        # Unit-width panels with 32 Gauss nodes give the reference, whatever
        # width the route chose; the reported quadrature error covers the gap.
        cfg = EnsembleConfig(k=k, alpha=alpha, N=N)
        f = get_cutoff(name)
        spectral = smooth_sum_spectral(cfg, f)
        phi = CharfnEvaluator(cfg).grid
        fine = _symmetric_grid(spectral.R, spectral.panel_width)
        ref = gauss_panels(-spectral.R, spectral.R, _symmetric_grid(spectral.R).centres.size, 32)
        gap = [np.dot(g.weights, phi(g) * f.transform_grid(g)) for g in (fine, ref)]
        assert spectral.quadrature_error >= abs(partition_function(cfg)) * abs(gap[0] - gap[1])

    def test_large_N_uses_the_fast_evaluator_and_its_bound(self, monkeypatch):
        # Past N = 10^4 the route takes charfn_for's FastCharfn: the exact
        # product on the same grid lands inside the quadrature error, and the
        # evaluator's relative truncation bound enters it (a bound of 1e-6 put
        # in its place lifts it to at least expm1(1e-6) |value|).
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**5)
        f = get_cutoff("gaussian")
        spectral = smooth_sum_spectral(cfg, f)
        grid = _symmetric_grid(spectral.R, spectral.panel_width)
        exact = np.dot(grid.weights, CharfnEvaluator(cfg).grid(grid) * f.transform_grid(grid))
        assert abs(spectral.value - partition_function(cfg) * exact) <= spectral.quadrature_error
        monkeypatch.setattr(FastCharfn, "truncation_bound", lambda self, lam_max: 1e-6)
        loose = smooth_sum_spectral(cfg, f)
        assert loose.value == spectral.value
        assert loose.quadrature_error >= math.expm1(1e-6) * abs(loose.value) > spectral.quadrature_error

    @pytest.mark.parametrize(
        "kwargs",
        [{"R": 0.0}, {"R": -5.0}, {"R": math.inf}, {"R": math.nan}, {"tol": 0.0}, {"tol": -1.0}],
    )
    def test_nonpositive_radius_or_tolerance_rejected(self, kwargs, monkeypatch):
        # refused up front, before any Euler product
        def euler_product(*args):
            raise AssertionError("an Euler product was taken")

        monkeypatch.setattr(smoothsum, "partition_function", euler_product)
        monkeypatch.setattr(smoothsum, "_positive_product", euler_product)
        cfg = EnsembleConfig(k=2, alpha=1.0, N=30)
        with pytest.raises(DomainError):
            smooth_sum_spectral(cfg, get_cutoff("gaussian"), **kwargs)

    def test_unit_width_fallback_is_the_fixed_layout(self):
        # tol / 4 = 2.5e-32 lies below the remainder bound of unit-width
        # panels at either strip (5.9e-32 at y = 3, 2.0e-24 at y = 1.46), so no
        # width >= 1 fits: the route keeps unit-width panels and gives, bit for
        # bit, their sum and the remainder bound at rho = 6
        cfg = EnsembleConfig(k=2, alpha=1.0, N=30)
        f, R = get_cutoff("gaussian"), 8.0
        spectral = smooth_sum_spectral(cfg, f, R=R, tol=1e-31)
        assert (spectral.panel_width, spectral.rho) == (1.0, 6.0)
        z, charfn = partition_function(cfg), charfn_for(cfg)
        grid = gauss_panels(-R, R, 16, 16)
        terms = charfn.grid(grid) * f.transform_grid(grid)
        assert spectral.value == z * complex(np.sum(grid.weights * terms))
        sup = _positive_product(cfg, 1.4583333333333333) * f.strip_bound(1.4583333333333333)
        mass = abs(z) * float(np.sum(grid.weights * np.abs(terms)))
        assert spectral.quadrature_error == R * 64.0 / 15.0 * sup * 6.0**-32 / (6.0**2 - 1.0) + (
            math.expm1(charfn.truncation_bound(R)) + math.ulp(1.0) * terms.size
        ) * mass

    def test_wider_panels_keep_the_remainder_within_its_share(self):
        # the three spectral sums of the small CLI benchmark take panels wider
        # than 4 or exactly 4 (R = 8: one panel per half-line does not fit),
        # and their quadrature error (remainder, evaluator and rounding) stays
        # under a quarter of tol
        widths = []
        for k, alpha, N, name in QUADRATURE_CASES[-3:]:
            spectral = smooth_sum_spectral(EnsembleConfig(k=k, alpha=alpha, N=N), get_cutoff(name))
            widths.append((spectral.R, spectral.panel_width))
            assert spectral.quadrature_error <= 0.25e-9
        assert widths == [(8.0, 4.0), (8.0, 4.0), (1024.0, 1024.0 / 218)]

    def test_layouts_with_an_overflowing_bound_are_skipped(self, monkeypatch):
        # a strip bound past the float range (e^{3 * 300}) or an Euler product
        # that overflows drops the y = 3 strip without a RuntimeWarning
        cfg = EnsembleConfig(k=2, alpha=1.0, N=30)
        wide = dataclasses.replace(get_cutoff("bump01"), name="wide", support=(0.0, 300.0))
        assert wide.strip_bound(3.0) == math.inf
        product = smoothsum._positive_product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            width, rho, grid, bound = _panel_rule(cfg, wide, 8.0, 1.0)
            assert (width, rho, grid.size) == (1.0, 6.0, 256) and math.isfinite(bound)
            monkeypatch.setattr(
                smoothsum, "_positive_product", lambda c, y: float(np.exp(1e3)) if y == 3.0 else product(c, y)
            )
            # the unit strip then fits one panel per half-line
            s = 2.0 * smoothsum._STRIP / 8.0
            assert _panel_rule(cfg, get_cutoff("gaussian"), 8.0, 1.0)[:2] == (8.0, s + math.sqrt(s * s + 1.0))

    def test_gaussian_strip_bound_overflows_to_inf(self):
        f = get_cutoff("gaussian")
        assert math.isfinite(f.strip_bound(37.0))
        assert f.strip_bound(40.0) == math.inf

    @pytest.mark.parametrize("y", [0.5, 1.46, 3.0])
    @pytest.mark.parametrize("name", ["indicator", "bump", "bump01", "gaussian"])
    def test_strip_bound_covers_complex_frequencies(self, name, y):
        # fhat(lam + i y) by adaptive quadrature of f(u) e^{-i lam u} e^{y u}
        f = get_cutoff(name)
        lo, hi = f.support if f.support is not None else (-40.0, 40.0)
        for lam in (0.0, 2.0, 10.0):
            for s in (-1.0, 1.0):
                value, _ = complex_quad(
                    lambda u: f.evaluate(u) * np.exp(-1j * lam * u + s * y * u) / TWO_PI, lo, hi
                )
                assert abs(value) <= f.strip_bound(y) * (1 + 1e-12)
        assert f.strip_bound(y) > f.strip_bound(0.0) == pytest.approx(abs(f.transform([0.0])[0]))


def gauss_remainder(R, n, y, sup):
    """R (64/15) sup rho^-32 / (rho^2 - 1) on n panels of width R / n per half-line of [-R, R], rho reaching y."""
    s = 2.0 * y / (R / n)
    rho = s + math.sqrt(s * s + 1.0)
    return R * 64.0 / 15.0 * sup * rho**-32 / (rho**2 - 1.0)


def listed_panels(R, sups, target):
    """Panels per half-line under a fixed list of widths 4, 2 (y = 3) and 1 (y = 1.46): the
    widest whose remainder is at most target / 4, else width 1."""
    for h, y in ((4.0, 3.0), (2.0, 3.0), (1.0, smoothsum._STRIP)):
        if gauss_remainder(R, R / h, y, sups[y]) <= 0.25 * target or h == 1.0:
            return math.ceil(R / h)


class TestPanelRule:
    @pytest.mark.parametrize("R", [8.0, 360.0, 1024.0])
    @pytest.mark.parametrize("k,alpha,N,name,target", PANEL_RULE_CASES)
    def test_fewest_panels_the_bound_allows(self, k, alpha, N, name, target, R):
        cfg, f = EnsembleConfig(k=k, alpha=alpha, N=N), get_cutoff(name)
        if target is None:
            target = 1e-9 * abs(partition_function(cfg))
        sups = {y: _positive_product(cfg, y) * f.strip_bound(y) for y in (3.0, smoothsum._STRIP)}
        share = smoothsum._REMAINDER_SHARE * target
        width, rho, grid, bound = _panel_rule(cfg, f, R, target)
        n = grid.centres.size // 2
        rebuilt = _symmetric_grid(R, width)
        assert np.array_equal(rebuilt.points, grid.points) and np.array_equal(rebuilt.weights, grid.weights)
        # the first strip on which some n <= ceil(R) fits, searched one n at a time
        fits = [(m, y) for y in sups for m in range(1, math.ceil(R) + 1) if gauss_remainder(R, m, y, sups[y]) <= share]
        if fits:
            m, y = fits[0]
            s = 2.0 * y / width
            assert (n, width, rho) == (m, R / m, s + math.sqrt(s * s + 1.0))
            assert bound == gauss_remainder(R, n, y, sups[y]) <= share  # valid
            assert n == 1 or gauss_remainder(R, n - 1, y, sups[y]) > share  # minimal
        else:
            assert (n, width, rho) == (math.ceil(R), 1.0, 6.0)
        assert n <= listed_panels(R, sups, target)  # never more panels than the fixed widths

    @pytest.mark.parametrize("R", [8.0, 360.0, 1024.0])
    @pytest.mark.parametrize("y", [3.0, smoothsum._STRIP])
    def test_least_panels_on_the_bound_itself(self, R, y):
        # a target equal to the remainder of n panels takes n, one a hair below it n + 1,
        # however the rounding of the width R / n falls
        cap = math.ceil(R)
        for n in range(1, cap):
            target = gauss_remainder(R, n, y, 1e3)
            assert smoothsum._least_panels(R, y, 1e3, target, cap) == n
            assert smoothsum._least_panels(R, y, 1e3, math.nextafter(target, 0.0), cap) == n + 1
        assert smoothsum._least_panels(R, y, 1e3, math.nextafter(gauss_remainder(R, cap, y, 1e3), 0.0), cap) is None

    def test_least_panels_matches_a_scan_one_n_at_a_time(self):
        # the bisection relies on the rounded bound never rising with n: over seeded draws it
        # agrees with the first fitting n of a plain scan, including inf or nan sups and
        # targets of 0 (nothing fits) or 1e-40
        rng = random.Random(0)
        for _ in range(2000):
            R = rng.choice([8.0, 5.26, 100.0, 360.0, 1024.0, rng.uniform(1.0, 1024.0)])
            y = rng.choice([3.0, smoothsum._STRIP])
            sup = rng.choice([10.0 ** rng.uniform(-30.0, 300.0)] * 4 + [0.0, math.inf, math.nan])
            target = rng.choice([10.0 ** rng.uniform(-40.0, 5.0)] * 4 + [0.0, 1e-40])
            cap = smoothsum._half_panels(R, 1.0)
            scan = None
            if sup < math.inf and target > 0:
                scan = next((m for m in range(1, cap + 1) if gauss_remainder(R, m, y, sup) <= target), None)
            assert smoothsum._least_panels(R, y, sup, target, cap) == scan, (R, y, sup, target)

    @pytest.mark.parametrize("R", [8.0, 360.0, 1024.0, 4096.0, 5.26, 100.0, 720.0])
    def test_grid_of_width_r_over_n_has_n_panels(self, R):
        # R / (R / n) rounds above n for some pairs (R = 8, n = 49 among them)
        for n in range(1, 2000):
            assert smoothsum._half_panels(R, R / n) == n
        assert _symmetric_grid(8.0, 8.0 / 49).centres.size == 98


class TestAlgebraicInvariants:
    def test_linearity_of_the_direct_route(self):
        rng = np.random.default_rng(20260823)
        cfg = EnsembleConfig(k=2, alpha=0.8 - 0.6j, N=10)
        f, g = get_cutoff("bump"), get_cutoff("gaussian")
        s_f = smooth_sum_direct(cfg, f)
        s_g = smooth_sum_direct(cfg, g)
        for _ in range(5):
            a = complex(*rng.uniform(-2, 2, size=2))
            b = complex(*rng.uniform(-2, 2, size=2))
            combined = smooth_sum_direct(cfg, combination_cutoff(a, f, b, g))
            assert combined == pytest.approx(a * s_f + b * s_g, rel=1e-13)

    @pytest.mark.parametrize("k,alpha,N", [(2, -1.0, 10), (3, 1.5, 7)])
    def test_real_cutoff_real_alpha_gives_real_sum(self, k, alpha, N):
        value = smooth_sum_direct(
            EnsembleConfig(k=k, alpha=alpha, N=N), get_cutoff("bump")
        )
        assert value.imag == 0.0

    @pytest.mark.parametrize("N", [13, 10**6])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_real_alpha_even_cutoff_gives_real_spectral_sum(self, alpha, N):
        # phi_N(-lam) = conj phi_N(lam) bit for bit on the symmetric grid, so
        # each +-lam pair of terms is real and so is the sum, at any panel width
        value = smooth_sum_spectral(EnsembleConfig(k=2, alpha=alpha, N=N), get_cutoff("bump")).value
        assert value.imag == 0.0

    def test_conjugating_alpha_conjugates_the_sum(self):
        f = get_cutoff("bump01")
        alpha = 0.9 + 0.7j
        s = smooth_sum_direct(EnsembleConfig(k=3, alpha=alpha, N=7), f)
        s_bar = smooth_sum_direct(
            EnsembleConfig(k=3, alpha=alpha.conjugate(), N=7), f
        )
        assert s_bar == pytest.approx(s.conjugate(), rel=1e-14)


@pytest.fixture(scope="module")
def prediction_reports():
    """Reports for (k=2, alpha=1) at N = 1e4, 1e6, 1e8 with the bump cutoff."""
    const = partition_constant(2, 1.0).value
    f = get_cutoff("bump")
    return [
        asymptotic_prediction(EnsembleConfig(k=2, alpha=1.0, N=N), f, constant=const)
        for N in (10**4, 10**6, 10**8)
    ]


class TestAsymptoticPrediction:
    def test_spectral_over_predicted_approaches_one_monotonically(
        self, prediction_reports
    ):
        devs = [
            abs(rep.ratios["spectral_over_asymptotic"] - 1)
            for rep in prediction_reports
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < devs[0] < 0.5

    def test_default_truncation_rule(self, prediction_reports):
        for rep in prediction_reports:
            log_n = math.log(rep.N)
            assert rep.R == pytest.approx(log_n / math.log(log_n), rel=1e-12)

    def test_real_alpha_prediction_is_real(self, prediction_reports):
        rep = prediction_reports[0]
        assert abs(rep.asymptotic.imag) <= 1e-10 * abs(rep.asymptotic)

    def test_report_fields(self, prediction_reports):
        rep = prediction_reports[0]
        assert (rep.k, rep.alpha, rep.N) == (2, 1.0 + 0.0j, 10**4)
        assert rep.cutoff == "bump"
        assert rep.direct is None  # 2^1229 elements: far past the cap
        assert rep.epsilon_rate > 0.0
        assert "spectral_over_asymptotic" in rep.ratios

    def test_envelope_dominated_by_loglog_term_for_eta_four(self):
        f4 = dataclasses.replace(get_cutoff("bump"), eta=4.0)
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**4)
        R = math.sqrt(math.log(cfg.N))
        rep = asymptotic_prediction(cfg, f4, R=R, constant=1.0)
        log_n = math.log(cfg.N)
        first = math.log(log_n) / log_n
        second = 1.0 / R**3
        assert first > second
        assert rep.epsilon_rate == pytest.approx(first + second, rel=1e-12)

    def test_forbidden_alpha_is_degenerate(self):
        cfg = EnsembleConfig(k=2, alpha=-2.0, N=100)
        with pytest.raises(DegenerateConfigError, match="forbidden"):
            asymptotic_prediction(cfg, get_cutoff("bump"), constant=1.0)

    def test_large_alpha_rejected(self):
        cfg = EnsembleConfig(k=3, alpha=2.5, N=100)
        with pytest.raises(DomainError, match=r"\|alpha\| < 2"):
            asymptotic_prediction(cfg, get_cutoff("bump"), constant=1.0)

    def test_slow_cutoff_rejected(self):
        f_slow = dataclasses.replace(get_cutoff("bump"), eta=1.5)
        cfg = EnsembleConfig(k=2, alpha=1j, N=100)  # decay offset delta = 1
        with pytest.raises(DomainError, match="eta"):
            asymptotic_prediction(cfg, f_slow, constant=1.0)

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_nonpositive_R_rejected(self, R):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=10**5)
        with pytest.raises(DomainError, match="0 < R"):
            asymptotic_prediction(cfg, get_cutoff("bump"), R=R, constant=1.0)

    def test_oversized_R_rejected(self):
        cfg = EnsembleConfig(k=2, alpha=1.0, N=100)
        with pytest.raises(DomainError, match="R <= log N"):
            asymptotic_prediction(cfg, get_cutoff("bump"), R=10.0, constant=1.0)

    def test_insufficient_R_for_decay_offset_rejected(self):
        f4 = dataclasses.replace(get_cutoff("bump"), eta=2.5)
        cfg = EnsembleConfig(k=2, alpha=1j, N=10**4)  # delta = 1
        with pytest.raises(DomainError, match="<= 1"):
            asymptotic_prediction(cfg, f4, R=2.0, constant=1.0)


class TestErrorRegion:
    def test_pinned_examples_at_half_offset(self):
        assert error_region(1e-6, 3.5, delta=0.5) == "a"
        assert error_region(0.5, 2.5, delta=0.5) == "b"
        assert error_region(0.99, 1.51, delta=0.5) == "invalid"

    def test_zero_offset_boundaries(self):
        # eta = 4: lower boundary 2/3, upper boundary 1
        assert error_region(0.3, 4.0) == "a"
        assert error_region(2.0 / 3.0, 4.0) == "a"  # boundary inclusive
        assert error_region(0.8, 4.0) == "b"

    def test_upper_boundary_is_invalid(self):
        # eta = 3, delta = 0.5: upper boundary (3 - 1.5)/2 = 0.75
        assert error_region(0.75, 3.0, delta=0.5) == "invalid"
        assert error_region(0.74, 3.0, delta=0.5) == "b"

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="eta"):
            error_region(0.5, 1.0)
        with pytest.raises(DomainError, match="tau"):
            error_region(0.0, 3.0)
        with pytest.raises(DomainError, match="tau"):
            error_region(1.0, 3.0)


class TestCorollary1Rate:
    def test_fast_decay_saturates(self):
        rate = corollary1_rate(4.0, 0.0)
        assert rate.branch == "loglog-over-log"
        assert (rate.loglog_exponent, rate.log_exponent) == (1.0, 1.0)
        N = 10**6
        assert rate.evaluate(N) == pytest.approx(
            math.log(math.log(N)) / math.log(N)
        )

    def test_slow_decay_power_branch(self):
        rate = corollary1_rate(2.0, 0.5)
        assert rate.branch == "power"
        assert (rate.loglog_exponent, rate.log_exponent) == (1.0, 0.5)

    def test_threshold_belongs_to_power_branch(self):
        rate = corollary1_rate(2.5, 0.5)
        assert rate.branch == "power"
        assert (rate.loglog_exponent, rate.log_exponent) == (1.5, 1.0)

    def test_describe_mentions_both_logs(self):
        text = corollary1_rate(4.0, 0.0).describe()
        assert "log log N" in text and "log N" in text

    def test_eta_at_or_below_delta_rejected(self):
        with pytest.raises(DomainError):
            corollary1_rate(0.4, 0.5)


class TestRatioScan:
    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            theorem1_ratio_scan(2, 1.0, [10**3], R_numerator=0.0)

    def test_infinite_radius_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            theorem1_ratio_scan(2, 1.0, [10**3], R_numerator=math.inf)

    def test_rows_sorted_with_truncation_rule(self):
        rows = theorem1_ratio_scan(2, 1.0, [10**4, 10**3])
        assert [r[0] for r in rows] == [10**3, 10**4]
        for N, R_N, ratio in rows:
            log_n = math.log(N)
            assert R_N == pytest.approx(log_n / math.log(log_n), rel=1e-12)
            assert np.isfinite(ratio.real) and np.isfinite(ratio.imag)

    def test_scan_grid_layouts(self, monkeypatch):
        # at N = 10^6, R = 360 the Gauss remainder over |Z| must be at most
        # 1e-9 / 4: at y = 3 it is 2.4e-10 on 81 panels per half-line for
        # alpha = 1 (3.4e-10 on 80), and 2.2e-10 on 100 for alpha = -1 (3.0e-10
        # on 99)
        rule, picked = smoothsum._panel_rule, []
        monkeypatch.setattr(smoothsum, "_panel_rule", lambda *args: picked.append(rule(*args)) or picked[-1])
        for alpha in (1.0, -1.0):
            theorem1_ratio_scan(2, alpha, [10**6])
        assert [(p[0], p[2].size) for p in picked] == [(360.0 / 81, 2592), (360.0 / 100, 3200)]

    def test_seed_zero_scan_grid_counts(self, monkeypatch):
        # the benchmark's two seed-0 scan-grid scans evaluate FastCharfn.grid on
        # 2,592 + 3,200 nodes, where the fixed widths 4 and 2 would take 8,640,
        # and take one strip's Euler product each
        nodes, products = [], []
        grid, product = FastCharfn.grid, smoothsum._positive_product
        monkeypatch.setattr(FastCharfn, "grid", lambda self, lams, *a: nodes.append(lams.size) or grid(self, lams, *a))
        monkeypatch.setattr(smoothsum, "_positive_product", lambda *args: products.append(args) or product(*args))
        for alpha in (1.0, -1.0):
            theorem1_ratio_scan(2, alpha, (10**6,))
        assert len(nodes) == 2 and sum(nodes) <= 6000 and len(products) <= 2

    def test_unit_alpha_deviations_shrink(self):
        rows = theorem1_ratio_scan(2, 1.0, [10**4, 10**5, 10**6])
        devs = [abs(r - 1) for _, _, r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
