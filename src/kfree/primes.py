"""Prime generation, counting and prime sums shared by every other module.

One odd-only segmented sieve serves every limit in O(sqrt(limit) + segment)
memory besides the table (the convergence scans need every prime up to
~10**8), and keeps one int64 copy of it.  Tables are immutable and cached
behind a lock, and a smaller limit is a read-only view of a larger cached
table, so tables can be shared freely across threads.  The Euler-product
sums map a table's chunks in order (:meth:`PrimeTable.map_chunks`); past
a split they read the table's cached power sums (:meth:`PrimeTable.power_sums`,
and FastCharfn's bucketed :meth:`PrimeTable.tail_sums`), and past the table
the prime zeta function (:func:`prime_zeta_tails`).  From ``_PARALLEL_LIMIT``
on, the sieve's segments, these chunks and the bucket groups are shared among
kfree's workers and reduced in order, so no value depends on the worker count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zetac

from ._threads import map_blocks, one_blas_thread
from .errors import DomainError

__all__ = ["PrimeTable", "sieve_primes", "prime_count", "prime_zeta_tails"]

_SEGMENT_SIZE = 1 << 21

# primes per chunk of the Euler-product sums, so memory stays bounded at any
# N; at N = 10^7 and 10^8 this ran as fast as or faster than 2^20 primes per
# chunk or one full-length pass; it also bounds the exact evaluator's
# (frequency block, chunk) arrays and the tail power sums' bucket groups
_CHUNK = 1 << 14

# pieces go to workers from this prime limit on (pi(2^24) ~ 2^20 primes): on a
# 2-core host the 10^8 sieve, build and partition sum ran 1.4-1.5x faster, while
# the 10^7 tables of `kfree constant` and `dickman` saved <= 0.03 s for 30-40% more CPU
_PARALLEL_LIMIT = 1 << 24

# caches under one lock, immutable and safe to share: limit -> PrimeTable,
# (limit, split) -> power sums, (limit, split, buckets) -> tail sums
_TABLE_CACHE: dict[int, "PrimeTable"] = {}
_POWER_CACHE: dict[tuple, np.ndarray] = {}
_TAIL_CACHE: dict[tuple, tuple] = {}
_CACHE_LOCK = threading.Lock()

# highest power p^-d of the bucketed tail sums (FastCharfn's log-series degree)
_TAIL_DEGREE = 4


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

    def map_chunks(self, fn, start: int = 0, stop: int | None = None) -> list:
        """[fn(chunk) for each chunk of primes[start:stop] in order], a chunk being ``_CHUNK`` primes
        (the last one shorter) as a read-only int64 view, which float arithmetic converts on the fly;
        the chunks are shared out by :func:`_map_pieces`."""
        primes = self.primes[start:stop]
        count = -(-primes.size // _CHUNK)
        return _map_pieces(lambda i: fn(primes[i * _CHUNK : (i + 1) * _CHUNK]), count, self.limit)

    def power_sums(self, split: int) -> np.ndarray:
        """[sum p^-d for d = 1..5] over primes[split:], read-only: one pass per (limit, split), cached, in
        which each chunk's :func:`_power_parts` are added up exactly (``math.fsum``)."""
        key = (self.limit, int(split))
        with _CACHE_LOCK:
            if key not in _POWER_CACHE:
                with one_blas_thread():
                    parts = np.reshape(self.map_chunks(_power_parts, split), (-1, 6)).T
                _POWER_CACHE[key] = np.array([math.fsum(parts[:2].ravel()), *map(math.fsum, parts[2:])])
                _POWER_CACHE[key].setflags(write=False)
            return _POWER_CACHE[key]

    def tail_sums(self, split: int, buckets: int) -> tuple:
        """(vbar, S, v0, width), alpha-free sums of primes[split:] in ``buckets`` buckets of
        v_p = log p / log limit, each ``width`` wide from v0: S[d - 1, j, b] = sum_{p in b} p^-d
        (v_p - vbar_b)^j, d, j <= 4, vbar_b the bucket's mean v_p (0 if empty).  FastCharfn's layout;
        the plain sums are :meth:`power_sums`.  One pass per (limit, split, buckets), cached; the arrays
        are read-only.  S[d >= 2] is a series in the d = 1 rows, within 1e-14 of sum_p p^-d
        |v_p - vbar_b|^j; a coarser layout raises DomainError."""
        key = (self.limit, int(split), int(buckets))
        with _CACHE_LOCK:
            if key not in _TAIL_CACHE:
                _TAIL_CACHE[key] = _tail_pass(self, split, buckets)
            return _TAIL_CACHE[key]


_HIGH_BITS = np.uint64(2**64 - 2**29)  # the top 24 of a float's 53 significant bits


def _power_parts(p: np.ndarray) -> np.ndarray:
    """Sums over a chunk of primes of p^-1's top 24 bits, of the rest of p^-1, and of p^-2, ..., p^-5.  The
    first sum rounds not at all where the chunk spans few binades (past 10^4, 24 bits over 5 binades and 2^14
    terms take 43 of 53), so S_1 keeps its last bit, where a plain sum is off by 1e-16 relative and moves Z by
    as much.  The far smaller p^-2, ..., p^-5 are dot products of p^-1, p^-2 and p^-4."""
    inv = 1.0 / p
    high = (inv.view(np.uint64) & _HIGH_BITS).view(float)
    inv2 = inv * inv
    inv4 = inv2 * inv2
    return np.array([high.sum(), (inv - high).sum(), inv @ inv, inv2 @ inv, inv2 @ inv2, inv4 @ inv])


@one_blas_thread()
def _tail_pass(table: PrimeTable, split: int, buckets: int) -> tuple:
    """:meth:`PrimeTable.tail_sums`: the d = 1 rows of :func:`_tail_rows`, then the d >= 2 series of
    :func:`_tail_series` in them; the arrays are made read-only."""
    vbar, T, v0, width = _tail_rows(table, split, buckets)
    S = _tail_series(T, vbar, math.log(table.limit))
    for array in (vbar, S):
        array.setflags(write=False)
    return vbar, S, v0, width


def _tail_rows(table: PrimeTable, split: int, buckets: int, extra: int = 0) -> tuple:
    """(vbar, T, v0, width) of :meth:`PrimeTable.tail_sums`, T[i, b] = sum_{p in b} p^-1 u_p^i, u_p = v_p - vbar_b,
    i < 4 + m + extra, over groups of whole buckets of about ``_CHUNK`` primes, each with one ``np.add.reduceat``.
    m is the series order :func:`_tail_series` needs: with x = 3L width, L = log limit, its cut is at most
    x^m e^2x / m! of sum_p p^-d |u_p|^j, and m is the least order keeping that <= 1e-17 (7 at 4096 buckets,
    N = 10^8).  Its terms add up to at most e^2x times that sum, so rounding grows up to e^2x-fold over direct
    sums' (<= 6.4e-16): x > 1/2, where that passes e and 4 + m the 20 direct rows, raises DomainError."""
    primes, log_n = table.primes[split:], math.log(table.limit)
    v0, v1 = np.log(primes[[0, -1]]) / log_n
    edges = np.linspace(v0, v1 * (1 + 1e-12), buckets + 1)
    width = float(edges[-1] - edges[0]) / buckets
    x, order = 3 * log_n * width, 1
    if x > 0.5:
        raise DomainError(f"{buckets} buckets are too coarse for the tail series: 3 log N * width = {x:.3g} > 1/2")
    while x**order * math.exp(2 * x) / math.factorial(order) > 1e-17:
        order += 1
    # starts[b] = #{p : v_p < edges[b]}: v increases with p, so counting the primes up to e^{edge log N}
    # misses at most the one prime within rounding of that point, which its own v_p settles
    starts = np.searchsorted(primes, np.floor(np.exp(edges * log_n)).astype(np.int64), side="right")
    below, at = np.log(primes[np.clip([starts - 1, starts], 0, primes.size - 1)]) / log_n
    starts += ((starts < primes.size) & (at < edges)).astype(np.int64) - ((starts > 0) & (below >= edges))
    full = np.flatnonzero(np.diff(starts))  # the nonempty buckets
    bounds = np.append(starts[full], primes.size)  # bucket full[i] is bounds[i] : bounds[i + 1]
    counts = np.diff(bounds)
    vbar, T = np.zeros(buckets), np.zeros((4 + order + extra, buckets))
    groups = np.searchsorted(bounds, np.arange(0, primes.size, _CHUNK), side="right") - 1
    groups = np.unique(np.append(groups, full.size))

    def group(i: int) -> None:  # fills vbar and T for groups[i] <= b < groups[i + 1]
        g0, g1 = groups[i], groups[i + 1]
        lo, hi = bounds[g0], bounds[g1]
        v = np.log(primes[lo:hi]) / log_n
        vbar[full[g0:g1]] = np.add.reduceat(v, bounds[g0:g1] - lo) / counts[g0:g1]
        v -= np.repeat(vbar[full[g0:g1]], counts[g0:g1])
        terms = np.empty((T.shape[0], v.size))
        np.divide(1.0, primes[lo:hi], out=terms[0])
        for j in range(1, T.shape[0]):
            np.multiply(terms[j - 1], v, out=terms[j])
        T[:, full[g0:g1]] = np.add.reduceat(terms, bounds[g0:g1] - lo, axis=1)

    _map_pieces(group, groups.size - 1, table.limit)
    return vbar, T, float(edges[0]), width


def _tail_series(T: np.ndarray, vbar: np.ndarray, log_n: float) -> np.ndarray:
    """S[d - 1, j] of :meth:`PrimeTable.tail_sums` from the rows T of :func:`_tail_rows`, to order m = len(T) - 4,
    in T's own arithmetic: S[0] is T_0..T_4, and for d >= 2, p^-(d-1) = e^-(d-1)L vbar_b e^-(d-1)L u_p gives
    S[d - 1, j] = e^-(d-1)L vbar sum_{n<m} (-(d-1)L)^n / n! T_{j+n}."""
    order = T.shape[0] - 4
    # e^-L vbar to ~1 ulp, not (d - 1) L eps once powered: L vbar in long double, e^-(float part) (1 - rest)
    a = np.longdouble(log_n) * vbar
    base = np.exp(-a.astype(float)) * (1 - (a - a.astype(float)).astype(float))
    S = np.empty((_TAIL_DEGREE, 5, vbar.size), dtype=T.dtype)
    S[0] = T[:5]
    for d in range(2, _TAIL_DEGREE + 1):
        c = [(-(d - 1) * log_n) ** n / math.factorial(n) for n in range(order)]
        S[d - 1] = base ** (d - 1) * sum(c[n] * T[n : n + 5] for n in reversed(range(order)))
    return S


def _sieve(limit: int) -> np.ndarray:
    """Odd-only segmented Eratosthenes sieve; returns int64 array of primes <= limit.

    The odd base primes <= sqrt(limit) come from this sieve itself (a literal
    table below 9).  A segment spans ``_SEGMENT_SIZE`` integers from an odd
    ``first`` and stores only its odd ones (entry i is first + 2i); each base
    prime crosses out its odd multiples from max(p^2, first), every p-th entry.
    Segments are independent pieces of :func:`_map_pieces` that return their
    primes' entries as uint32; their counts size the one int64 table, and
    pieces again write each segment's first + 2i into its slice.
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
        return np.flatnonzero(seg).astype(np.uint32)

    entries = _map_pieces(segment, len(range(3, limit + 1, 2 * half)), limit)
    stops = np.cumsum([1] + [e.size for e in entries])
    table = np.empty(stops[-1], dtype=np.int64)
    table[0] = 2

    def write(n: int) -> None:
        out = table[stops[n] : stops[n + 1]]
        np.add(entries[n], entries[n], out=out)
        out += 3 + 2 * half * n
        entries[n] = None

    _map_pieces(write, len(entries), limit)
    return table


def sieve_primes(limit: int) -> PrimeTable:
    """Return the (cached) table of all primes <= limit.

    A smaller limit is a read-only view of a larger cached table, not a new
    sieve.  Raises DomainError for limit < 2 (there is no nonempty table).
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
                arr = src.primes[: src.count_below(limit)]  # a read-only view
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


# mu(n) for the terms n of the prime zeta series: mu(n)/n log zeta(nd) ~ 2^-nd / n is below 1e-21 past them
_MOBIUS = np.array([1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1,
                    -1, -1, 0, 1, 1, 1])


def prime_zeta_tails(limit: int) -> np.ndarray:
    """[sum_{p > limit} p^-d for d = 2..5]: the prime zeta function P(d) = sum_n mu(n)/n log zeta(nd)
    (Cohen, "High precision computation of Hardy-Littlewood constants", 1998), with log zeta(s) =
    log1p(``scipy.special.zetac``(s)), less the head sum_{p <= limit} p^-d, each summed exactly
    (``math.fsum``) since the first terms outweigh the rest.  Each value is within 1e-16 of its tail
    (a few roundings of P(d) <= 0.46), not of its size."""
    degrees, n = range(2, 6), np.arange(1, _MOBIUS.size + 1)
    prime_zeta = [math.fsum(_MOBIUS / n * np.log1p(zetac(n * d))) for d in degrees]
    head = sieve_primes(limit).map_chunks(lambda p: [math.fsum(p ** -float(d)) for d in degrees])
    return np.array(prime_zeta) - [math.fsum(column) for column in zip(*head)]
