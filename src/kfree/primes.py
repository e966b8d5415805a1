"""Prime generation, counting and prime sums shared by every other module.

One odd-only segmented sieve serves every limit in O(sqrt(limit) + segment)
memory besides the table (the convergence scans need every prime up to
~10**8).  Tables are immutable and cached behind a lock, and a smaller limit
is sliced from a larger cached table, so tables can be shared freely across
threads.  The Euler-product sums map a table's float chunks in order
(:meth:`PrimeTable.map_chunks`) and take their tails past it by one rule
(:func:`prime_power_tail`).  From ``_PARALLEL_LIMIT`` on, the sieve's segments,
these chunks and FastCharfn's build groups are shared among kfree's workers
and reduced in order, so no value depends on the worker count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._threads import map_blocks
from .errors import DomainError
from .specfun import exp_integral_e1

__all__ = ["PrimeTable", "sieve_primes", "prime_count", "prime_power_tail"]

_SEGMENT_SIZE = 1 << 21

# primes per chunk of the Euler-product sums, so memory stays bounded at any
# N; at N = 10^7 and 10^8 this ran as fast as or faster than 2^20 primes per
# chunk or one full-length pass; it also bounds the exact evaluator's
# (frequency block, chunk) arrays and FastCharfn's build groups
_CHUNK = 1 << 14

# pieces go to workers from this prime limit on (pi(2^24) ~ 2^20 primes): on a
# 2-core host the 10^8 sieve, build and partition sum ran 1.4-1.5x faster, while
# the 10^7 tables of `kfree constant` and `dickman` saved <= 0.03 s for 30-40% more CPU
_PARALLEL_LIMIT = 1 << 24

# process-wide cache: limit -> PrimeTable (immutable, safe to share)
_TABLE_CACHE: dict[int, "PrimeTable"] = {}
_CACHE_LOCK = threading.Lock()


def _map_pieces(task, count: int, limit: int) -> list:
    """[task(0), ..., task(count - 1)] for the independent pieces of a table up to ``limit``: in
    order on the calling thread below ``_PARALLEL_LIMIT``, else one at a time on :func:`map_blocks`."""
    if limit < _PARALLEL_LIMIT:
        return [task(i) for i in range(count)]
    out = [None] * count

    def run(lo: int, hi: int) -> None:
        out[lo:hi] = map(task, range(lo, hi))

    map_blocks(run, count, 1)
    return out


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

    def map_chunks(self, fn) -> list:
        """[fn(chunk) for each chunk in order], a chunk being ``_CHUNK`` primes as a float
        array (the last one shorter); the chunks are shared out by :func:`_map_pieces`."""
        count = -(-self.primes.size // _CHUNK)
        return _map_pieces(lambda i: fn(self.primes[i * _CHUNK : (i + 1) * _CHUNK].astype(float)), count, self.limit)


def _sieve(limit: int) -> np.ndarray:
    """Odd-only segmented Eratosthenes sieve; returns int64 array of primes <= limit.

    The odd base primes <= sqrt(limit) come from this sieve itself (a literal
    table below 9).  A segment spans ``_SEGMENT_SIZE`` integers from an odd
    ``first`` and stores only its odd ones (entry i is first + 2i); each base
    prime crosses out its odd multiples from max(p^2, first), every p-th entry.
    Segments are independent pieces of :func:`_map_pieces`, joined in order.
    """
    if limit < 9:  # no odd base prime: 3^2 = 9
        return np.array([p for p in (2, 3, 5, 7) if p <= limit], dtype=np.int64)
    odd = _sieve(math.isqrt(limit))[1:]
    half = max(1, _SEGMENT_SIZE // 2)

    def segment(n: int) -> np.ndarray:
        first = 3 + 2 * half * n
        seg = np.ones(min(half, (limit - first) // 2 + 1), dtype=bool)
        # the first odd multiple of p at or past max(p^2, first), as an entry index
        start = np.maximum(odd * odd, -(-first // odd) * odd)
        start += odd * (start % 2 == 0)
        for p, i in zip(odd.tolist(), ((start - first) // 2).tolist()):
            seg[i::p] = False
        return 2 * np.flatnonzero(seg) + first

    segments = _map_pieces(segment, len(range(3, limit + 1, 2 * half)), limit)
    return np.concatenate([np.array([2], dtype=np.int64)] + segments)


def sieve_primes(limit: int) -> PrimeTable:
    """Return the (cached) table of all primes <= limit.

    A larger cached table is sliced rather than sieving again.  Raises
    DomainError for limit < 2 (there is no nonempty table to build).
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"prime table needs limit >= 2, got {limit}")
    with _CACHE_LOCK:
        table = _TABLE_CACHE.get(limit)
        if table is None:
            bigger = [l for l in _TABLE_CACHE if l > limit]
            if bigger:
                src = _TABLE_CACHE[min(bigger)]
                arr = src.primes[: src.count_below(limit)].copy()
            else:
                arr = _sieve(limit)
            table = PrimeTable(limit=limit, primes=arr)
            _TABLE_CACHE[limit] = table
    return table


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit (0 for limit < 2)."""
    limit = int(limit)
    if limit < 2:
        return 0
    return sieve_primes(limit).count()


def prime_power_tail(coeffs, limit: int):
    """sum_j c_j sum_{p > limit} p^-j for coeffs = (c_2, c_3, ...), the tail of a prime sum.

    Each sum_{p > P} p^-j is taken as its prime-counting integral
    int_P^inf dt / (t^j log t) = E1((j - 1) log P).
    """
    a = math.log(limit)
    return sum(c * exp_integral_e1((j - 1) * a).value.real for j, c in enumerate(coeffs, 2))
