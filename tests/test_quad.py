"""complex_quad against an external oracle, and the SciPy modules kfree loads.

``complex_quad`` runs on the library's own Gauss-Legendre panels, the family
that also builds the cached transforms, so its checks here go to
``scipy.integrate.quad``, imported in this module only.  The one library
caller ``bound_scan`` (1e-11) and the test oracle ``fourier_transform``
(1e-10 here) are checked at their own tolerances, and so is the closed form
``main_term_J111`` (1e-12) against a quadrature of its defining integral.
The grid evaluators' product ``gemm`` is checked against larger products.
"""

import cmath
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from kfree import EnsembleConfig
from kfree._quad import complex_quad, gemm
from kfree._threads import one_blas_thread
from kfree.ensemble import threshold_prime
from kfree.errors import ToleranceError
from kfree.remainders import _bounding_integrand, bound_scan, main_term_J111
from kfree.smoothsum import TWO_PI, builtin_cutoffs
from oracles import fourier_transform

ROOT = Path(__file__).resolve().parents[1]


def test_gemm_lone_rows_and_columns_are_those_of_a_larger_product():
    # complex, as in the grids' products: (rows, 2000) Gauss-node phases times a transposed
    # (shifts, 2000) array, and (L, cells) phases times (cells, 27) cell moments.  A row is
    # rounded as in any product with the same b, a lone column as in a two-column product
    # (OpenBLAS's zgemm sums columns by their place in a block of four)
    rng = np.random.default_rng(30)
    shapes = ((9, 2000), (5, 2000), (2000, 27))
    a, bt, c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes)
    with one_blas_thread():
        for a, b in ((a, bt.T), (a, c), (np.asfortranarray(a), c), (a, np.asfortranarray(c))):
            full = a @ b
            assert np.array_equal(gemm(a, b), full)
            for i in range(a.shape[0]):
                assert np.array_equal(gemm(a[i : i + 1], b), full[i : i + 1])
                assert np.array_equal(gemm(a[i : i + 1], b[:, 1:2]), (a[[i, i - 1]] @ b[:, 1:3])[:1, :1])
            for j in range(b.shape[1] - 1):
                assert np.array_equal(gemm(a, b[:, j : j + 1]), (a @ b[:, j : j + 2])[:, :1])


def test_gemm_leaves_larger_products_alone():
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal((2, 300)), rng.standard_normal((300, 2))
    assert np.array_equal(gemm(a, b), a @ b) and gemm(a, b).shape == (2, 2)
    assert gemm(a[:1], b[:, :1]).shape == (1, 1)


def scipy_quad(func, a, b, tol):
    re, _ = quad(lambda x: func(x).real, a, b, epsabs=tol, epsrel=tol, limit=400)
    im, _ = quad(lambda x: func(x).imag, a, b, epsabs=tol, epsrel=tol, limit=400)
    return complex(re, im)


# k = 2: (1, 1, 4) is the closing eps / u^3 form, c = k + 2
@pytest.mark.parametrize("term", [(2, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 4)])
def test_bound_scan_matches_scipy(term):
    cfgs = [EnsembleConfig(2, 1, n) for n in (10**3, 10**5, 10**8)]
    lams = (0.5, 1.0, 10.0, 100.0, 1000.0)
    rows = iter(bound_scan(term, cfgs, lams).rows)
    for cfg in cfgs:
        x0, x1 = math.log(threshold_prime(cfg)), math.log(cfg.N)
        for lam in lams:
            eps = lam / math.log(cfg.N)
            integrand = _bounding_integrand(*term, eps, eps_tail=(term[2] == 4))
            ref = abs(scipy_quad(integrand, x0, x1, 1e-11))
            assert abs(next(rows).magnitude - ref) <= 1e-11 * max(1.0, ref)


@pytest.mark.parametrize("N", [10**3, 10**4, 10**6])
def test_main_term_J111_matches_scipy(N):
    cfg = EnsembleConfig(2, 1, N)
    v0 = math.log(threshold_prime(cfg)) / math.log(N)
    for lam in (0.1, 1.0, 5.0, 50.0, 300.0):
        ref = scipy_quad(lambda v: (cmath.exp(1j * lam * v) - 1.0) / v, v0, 1.0, 1e-12)
        assert abs(main_term_J111(cfg, lam) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("f", builtin_cutoffs(), ids=lambda f: f.name)
def test_fourier_transform_matches_scipy(f):
    lo, hi = f.support if f.support is not None else (-40.0, 40.0)
    for lam in (0.0, 0.7, 3.3, 11.5, 40.0):
        ref = scipy_quad(lambda u: f.evaluate(u) * cmath.exp(-1j * lam * u), lo, hi, 1e-10)
        assert abs(TWO_PI * fourier_transform(f, lam, tol=1e-10) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_error_is_the_gap_between_levels():
    # e^{ix} on [0, 30] has a closed form; the finest level is far better
    # than the reported gap, and the gap meets the tolerance
    value, err = complex_quad(lambda x: cmath.exp(1j * x), 0.0, 30.0, tol=1e-12)
    exact = (cmath.exp(30j) - 1.0) / 1j
    assert err <= 1e-12
    assert abs(value - exact) <= 1e-12


def test_unresolved_integrand_raises_within_limit():
    # 1600 oscillations cannot be resolved on at most 4 panels of 16 nodes
    calls = []

    def integrand(x):
        calls.append(x)
        return cmath.exp(1000j * x)

    with pytest.raises(ToleranceError, match="exceeds tolerance"):
        complex_quad(integrand, 0.0, 10.0, tol=1e-10, limit=4)
    assert len(calls) == 16 * (1 + 2 + 4)
    with pytest.raises(ToleranceError, match="nan"):
        complex_quad(lambda x: complex(math.nan), 0.0, 1.0, limit=2)


GUARD = """
import sys
sys.path[:0] = sys.argv[1:3]
from kfree import EnsembleConfig, cli, main_term_J111
from kfree.smoothsum import get_cutoff
from oracles import fourier_transform

status = cli.run(["appendix", "--k", "2", "--term", "2,1,1", "--N-list", "1e3,1e4", "--lambda", "1"])
fourier_transform(get_cutoff("bump"), 1.0)
main_term_J111(EnsembleConfig(2, 1, 10**4), 1.0)
print(status, "scipy.special" in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""


def test_no_kfree_call_loads_scipy_integrate():
    # a fresh interpreter: this module itself has imported scipy.integrate
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(ROOT / "src"), str(ROOT / "tests")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True []"
