"""Shared fixtures: cached prime tables and density grids, and the BLAS pool guard.

The big sieves and the delay-ODE solves are the session's expensive shared
artifacts; build them once and hand the same immutable objects to every test.
Every test must leave numpy's OpenBLAS pool, and kfree's thread cap, as it
found them: a scope that does not restore the pool fails the test that left it.
"""

import numpy as np
import pytest

from kfree import _threads, primes


@pytest.fixture(autouse=True)
def blas_pool_unchanged():
    blas = _threads._openblas()
    before = (blas.get() if blas else None, _threads._cap)
    yield
    assert (blas.get() if blas else None, _threads._cap) == before, "BLAS pool size or thread cap left changed"


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in OpenBLAS handle with a pool of 4: ``state["size"]`` is its pool, ``state["sets"]`` each resize."""
    state = {"size": 4, "sets": []}

    def resize(n):
        state["sets"].append(n)
        state["size"] = n

    monkeypatch.setattr(_threads, "_openblas", lambda: _threads._Blas(lambda: state["size"], resize, 4))
    return state


@pytest.fixture(scope="session")
def table_1e6():
    return primes.sieve_primes(10**6)


@pytest.fixture(scope="session")
def table_1e7():
    return primes.sieve_primes(10**7)


@pytest.fixture(scope="session")
def table_1e8():
    return primes.sieve_primes(10**8)


@pytest.fixture(scope="session")
def rho_grid_1():
    from kfree import dickman

    return dickman.solve_rho(1.0, u_max=15.0, step=1e-3)


@pytest.fixture(scope="session")
def rho_grid_15():
    from kfree import dickman

    return dickman.solve_rho(1.5, u_max=15.0, step=1e-3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
