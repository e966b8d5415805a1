"""Reference implementations that only the tests call.

Each is either a quantity the library does not need at run time (the Laurent
partial sum, the cancellation identity, the trivial characteristic-function
bound) or an earlier form of a library route kept as the oracle it must match
bit for bit (the recursive ``Factorization`` enumeration and the direct sum
over it).
"""

from kfree.ensemble import (
    ENUMERATION_CAP,
    EnsembleConfig,
    Factorization,
    LaurentCoeffs,
    _b0,
    _positive_product,
    partition_function,
)
from kfree.errors import DegenerateConfigError, DomainError, SizeCapError
from kfree.primes import sieve_primes


def laurent_partial_sum(coeffs: LaurentCoeffs, u: complex) -> complex:
    """sum_l b(l)/u^l, evaluated by Horner from the top coefficient."""
    acc = 0.0 + 0.0j
    for b in reversed(coeffs.coefficients):
        acc = acc / u + b
    return complex(acc)


def cancellation_check(k: int, alpha: complex, l: int) -> complex:
    """sum_{j=0}^{min(l, k-1)} alpha^j * b_0(l-j); identically zero for l >= 2."""
    if l < 2:
        raise DomainError("the cancellation identity needs l >= 2")
    alpha = complex(alpha)
    return complex(sum(alpha**j * _b0(k, alpha, l - j) for j in range(min(l, k - 1) + 1)))


def trivial_charfn_bound(cfg: EnsembleConfig, strip: float = 0.0) -> float:
    """Bound on |phi_N(lambda)| over |Im lambda| <= strip: the positive product over |Z|."""
    z = partition_function(cfg)
    if z == 0:
        raise DegenerateConfigError("partition function vanishes; phi_N undefined")
    return _positive_product(cfg, strip) / abs(z)


def recursive_enumeration(cfg: EnsembleConfig, cap: int = ENUMERATION_CAP):
    """All k^pi(N) elements as (value, Factorization), by recursion over the primes."""
    primes = [int(p) for p in sieve_primes(cfg.N).primes]
    if cfg.k ** len(primes) > cap:
        raise SizeCapError(f"ensemble has {cfg.k}^{len(primes)} elements (> cap {cap})")
    items = []

    def rec(i: int, val: int, pairs: tuple):
        if i == len(primes):
            items.append((val, Factorization(pairs)))
            return
        p = primes[i]
        pv = 1
        for t in range(cfg.k):
            rec(i + 1, val * pv, pairs + ((p, t),) if t else pairs)
            pv *= p

    rec(0, 1, ())
    items.sort(key=lambda vf: vf[0])
    return items


def factorization_direct_sum(cfg: EnsembleConfig, f) -> complex:
    """sum f(xi) alpha^Omega / x over :func:`recursive_enumeration`, ascending x."""
    alpha = complex(cfg.alpha)
    total = 0.0 + 0.0j
    for value, fac in recursive_enumeration(cfg):
        fu = f.evaluate(fac.xi(cfg.N))
        if fu:
            total += fu * alpha**fac.omega / value
    return total
