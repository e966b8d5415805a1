"""Prime generation and counting shared by every other module.

A plain odd-only numpy sieve serves limits up to 10**7; beyond that an
odd-only segmented sieve keeps memory bounded (the convergence scans need
every prime up to ~10**8).  Tables are immutable after construction and
cached, so the expensive sieves run once per process and can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["PrimeTable", "sieve_primes", "prime_count"]

_SEGMENT_THRESHOLD = 10**7
_SEGMENT_SIZE = 1 << 21

# process-wide cache: limit -> PrimeTable (immutable, safe to share)
_TABLE_CACHE: dict[int, "PrimeTable"] = {}


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing, as a read-only array."""

    limit: int
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.size)

    def __iter__(self):
        return iter(int(p) for p in self.primes)

    def count(self) -> int:
        return int(self.primes.size)

    def count_below(self, x: float) -> int:
        """Number of table primes <= x (valid for x <= limit)."""
        return int(np.searchsorted(self.primes, x, side="right"))


def _simple_sieve(limit: int) -> np.ndarray:
    """Odd-only Eratosthenes sieve; returns int64 array of primes <= limit."""
    if limit < 3:
        return np.array([2], dtype=np.int64) if limit == 2 else np.array([], dtype=np.int64)
    # index i represents the odd number 2i+1; entry 0 (=1) is not prime
    n_odd = (limit + 1) // 2
    is_prime = np.ones(n_odd, dtype=bool)
    is_prime[0] = False
    for i in range(1, (int(limit**0.5) + 1) // 2 + 1):
        if is_prime[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            if start < n_odd:
                is_prime[start::p] = False
    odds = 2 * np.nonzero(is_prime)[0] + 1
    return np.concatenate(([2], odds)).astype(np.int64)


def _segmented_sieve(limit: int) -> np.ndarray:
    """Segmented odd-only sieve for large limits; memory stays O(sqrt(limit) + segment).

    A segment spans ``_SEGMENT_SIZE`` integers from an odd ``first`` and stores
    only its odd ones (entry i is first + 2i); the odd base primes cross out
    their odd multiples from max(p^2, first), every p-th entry.
    """
    base = _simple_sieve(int(limit**0.5) + 1)
    chunks = [base[base <= limit]]
    odd = base[1:]
    half = max(1, _SEGMENT_SIZE // 2)
    first = (int(base[-1]) + 1) | 1
    while first <= limit:
        seg = np.ones(min(half, (limit - first) // 2 + 1), dtype=bool)
        # the first odd multiple of p at or past max(p^2, first), as an entry index
        start = np.maximum(odd * odd, -(-first // odd) * odd)
        start += odd * (start % 2 == 0)
        for p, i in zip(odd.tolist(), ((start - first) // 2).tolist()):
            seg[i::p] = False
        chunks.append(2 * np.flatnonzero(seg) + first)
        first += 2 * half
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeTable:
    """Return the (cached) table of all primes <= limit.

    Raises DomainError for limit < 2 (there is no nonempty table to build).
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"prime table needs limit >= 2, got {limit}")
    table = _TABLE_CACHE.get(limit)
    if table is None:
        if limit <= _SEGMENT_THRESHOLD:
            # reuse a larger cached table if one exists: slicing is cheap
            bigger = [l for l in _TABLE_CACHE if l >= limit]
            if bigger:
                src = _TABLE_CACHE[min(bigger)]
                arr = src.primes[: src.count_below(limit)].copy()
            else:
                arr = _simple_sieve(limit)
        else:
            arr = _segmented_sieve(limit)
        table = PrimeTable(limit=limit, primes=arr)
        _TABLE_CACHE[limit] = table
    return table


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit (0 for limit < 2)."""
    limit = int(limit)
    if limit < 2:
        return 0
    return sieve_primes(limit).count()
