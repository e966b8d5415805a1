"""Shared fixtures: cached prime tables and density grids, the BLAS pool guard, a capped CLI run.

The big sieves and the delay-ODE solves are the session's expensive shared
artifacts; build them once and hand the same immutable objects to every test.
Every test must leave numpy's OpenBLAS pool, and kfree's thread cap, as it
found them: a scope that does not restore the pool fails the test that left it.
Inputs that could allocate terabytes run through ``capped_run``, in a child
process whose address space is capped, so that a regression fails fast there
instead of exhausting the host.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kfree import _threads, primes

# address-space cap of a capped_run child: a normal job (compare at N = 30, a
# 1,000-node charfn at N = 10^5) runs well inside it
CAPPED_BYTES = 2 << 30

_CAPPED_MAIN = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1]))); "
    "sys.path.insert(0, sys.argv[2]); "
    "from kfree.cli import run; sys.exit(run(sys.argv[3:]))"
)


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


@pytest.fixture
def capped_run():
    """``capped_run(argv)`` runs ``kfree.cli.run(argv)`` in a child capped at ``CAPPED_BYTES``
    of address space and returns its (exit code, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(argv, timeout=300):
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, str(CAPPED_BYTES), src, *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        return proc.returncode, proc.stderr

    return run


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
