"""Prime generation, counting and prime sums shared by every other module.

One odd-only segmented sieve serves every limit.  Below ``_PARALLEL_LIMIT`` = 2^24 a table is one read-only
int64 array, cached behind a lock, and a smaller limit is a read-only view of a larger cached table.  From the
gate on, a table keeps only its head, the primes below 2^24 (8.6 MB, sieved once and shared), and its last
few primes; every pass over it (:func:`_walk`) sieves the segments past the head, and each segment's primes are
consumed and dropped inside its own piece, so no pi(N)-long array exists unless a caller reads
:attr:`PrimeTable.primes`.  Every cut is a value x, as in the paper's sums over p <= N cut at 10^4, P or d*: a
pass covers the primes > x from the segment holding x + 1, and no prime index is placed past the head.  The
Euler-product sums map a table's chunks in order (:meth:`PrimeTable.map_chunks`); past a cut they read its
cached power sums (:meth:`PrimeTable.power_sums`, and FastCharfn's bucketed :meth:`PrimeTable.tail_sums`, whose
pass fills both), and past the table the prime zeta function P(2..5) as literals (:func:`prime_zeta_tails`).
A pass's pieces are the sieve's segments and stand alone: no chunk spans two, and the piece holding a bucket's
lower cut sieves on to its upper one.  So from the gate on they go to kfree's workers in any order, and no value
depends on the worker count, nor on whether the primes came from an array or from the sieve.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from ._threads import map_blocks, one_blas_thread
from .errors import DomainError

__all__ = ["PrimeTable", "sieve_primes", "prime_count", "prime_zeta_tails"]

_SEGMENT_SIZE = 1 << 21

# primes per chunk of the Euler-product sums, so memory stays bounded at any
# N; at N = 10^7 and 10^8 this ran as fast as or faster than 2^20 primes per
# chunk or one full-length pass; it also bounds the exact evaluator's
# (frequency block, chunk) arrays
_CHUNK = 1 << 14

# pieces go to workers from this prime limit on (pi(2^24) ~ 2^20 primes): on a
# 2-core host the 10^8 sieve, build and partition sum ran 1.4-1.5x faster, while
# the 10^7 tables of `kfree constant` and `dickman` saved <= 0.03 s for 30-40% more CPU;
# from it on, too, a table streams its primes past the head instead of holding them
_PARALLEL_LIMIT = 1 << 24

# integers at the end of a streamed table whose primes it keeps (about 450 at 10^8)
_LAST_SPAN = 1 << 13

# caches under one lock, immutable and safe to share: limit -> PrimeTable,
# (limit, x) -> power sums of the primes > x, (limit, x, buckets) -> their tail sums
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


class PrimeTable:
    """All primes up to ``limit``, strictly increasing, read by value.

    ``primes`` holds them all below ``_PARALLEL_LIMIT``, and from it on only those below it, the head: every
    pass (:func:`_walk`) then sieves the rest segment by segment.  :meth:`upto`, :meth:`after` and :meth:`last`
    read the primes <= x, the first prime > x and the last primes from the head or a short sieve; reading
    :attr:`primes` sieves the whole array once and keeps it, and :meth:`count` counts past the head in one pass.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self._head, self._head_limit = primes, min(self.limit, _PARALLEL_LIMIT - 1)
        self._count = primes.size if self._head_limit == self.limit else None
        primes.setflags(write=False)

    @property
    def primes(self) -> np.ndarray:
        """All the primes as one read-only int64 array; past the gate it is sieved when first read."""
        if self._head_limit < self.limit:
            full = _sieve(self.limit)
            full.setflags(write=False)
            self._head, self._head_limit, self._count = full, self.limit, full.size
        return self._head

    def upto(self, x: float) -> np.ndarray:
        """The primes <= x, read-only: a slice of the head, or past it all the primes of the table up to x."""
        x = math.floor(x)
        return sieve_primes(min(x, self.limit)).primes if x > self._head_limit else self._between(-1, x)

    def after(self, x: float) -> int | None:
        """The first prime > x, None if there is none: one of the primes in the next ``_LAST_SPAN`` integers,
        since no gap between primes below 4 * 10^18 exceeds 1,476 (Oliveira e Silva, Herzog and Pardi, 2014)."""
        x = min(math.floor(x), self.limit)
        p = self._between(x, min(x + _LAST_SPAN, self.limit))
        return int(p[0]) if p.size else None

    def last(self) -> np.ndarray:
        """The primes in the last ``_LAST_SPAN`` integers up to the limit, read-only."""
        return self._last

    @functools.cached_property
    def _last(self) -> np.ndarray:
        return self._between(self.limit - _LAST_SPAN, self.limit)

    def _between(self, lo: int, hi: int) -> np.ndarray:
        """The primes in (lo, hi], hi <= limit: a slice of the head up to its limit, else sieved (lo >= 2)."""
        if hi <= self._head_limit:
            return self._head[np.searchsorted(self._head, lo, side="right") : np.searchsorted(self._head, hi, "right")]
        return _odd_primes((lo + 1) | 1, hi + 1, self.upto(math.isqrt(hi))[1:])

    def __len__(self) -> int:
        return self.count()

    def __iter__(self):
        return iter(int(p) for p in self.primes)

    def count(self) -> int:
        """pi(limit): the head's size, plus past the gate the primes past it, counted by one pass and kept."""
        if self._count is None:
            self._count = self._head.size + sum(self.map_chunks(len, self._head_limit))
        return self._count

    def map_chunks(self, fn, x: float = 0) -> list:
        """[fn(chunk) for each chunk of the primes > x in order], a chunk being up to ``_CHUNK`` primes of one
        sieve segment as a read-only int64 array, which float arithmetic converts on the fly: one :func:`_walk`."""
        return _walk(self, x, fn)

    def power_sums(self, x: float) -> np.ndarray:
        """[sum p^-d for d = 1..5] over the primes > x, read-only: one pass per (limit, x), cached
        (a :meth:`tail_sums` pass fills it too), in which each chunk's :func:`_power_parts` are added
        up exactly (``math.fsum``)."""
        key = (self.limit, math.floor(x))
        with _CACHE_LOCK:
            if key not in _POWER_CACHE:
                with one_blas_thread():
                    _POWER_CACHE[key] = _power_total(self.map_chunks(_power_parts, key[1]))
            return _POWER_CACHE[key]

    def tail_sums(self, x: float, buckets: int) -> tuple:
        """(vbar, S, v0, width), alpha-free sums of the primes > x in ``buckets`` buckets of
        v_p = log p / log limit, each ``width`` wide from v0: S[d - 1, j, b] = sum_{p in b} p^-d
        (v_p - vbar_b)^j, d, j <= 4, vbar_b the bucket's mean v_p (0 if empty).  FastCharfn's layout;
        the plain sums are :meth:`power_sums`, which the same pass fills for ``x`` when they are
        not cached yet.  One pass per (limit, x, buckets), cached; the arrays are read-only.
        S[d >= 2] is a series in the d = 1 rows, within 1e-14 of sum_p p^-d |v_p - vbar_b|^j; a
        coarser layout, or no prime > x, raises DomainError."""
        key = (self.limit, math.floor(x), int(buckets))
        with _CACHE_LOCK:
            if key not in _TAIL_CACHE:
                power = key[:2] not in _POWER_CACHE
                _TAIL_CACHE[key], parts = _tail_pass(self, key[1], buckets, _power_parts if power else None)
                if power:
                    _POWER_CACHE[key[:2]] = _power_total(parts)
            return _TAIL_CACHE[key]


def _walk(table: PrimeTable, x: int, fn=None, tail=None) -> list:
    """[fn(chunk) for each chunk of the primes > x] (none without ``fn``), a chunk being up to ``_CHUNK`` primes
    of one sieve segment from its first prime > x; with ``tail`` = (cuts, fill), also ``fill(p, b0, b1)`` on
    buckets b0 <= b < b1 of the primes > x, bucket b from the integer cuts[b]: the one pass over a table.

    Its pieces, run as :func:`_map_pieces`, are :func:`_sieve`'s segments from the one holding x + 1, found by
    arithmetic on x, and each stands alone: it takes the slice of the table's array that it covers or, past it,
    sieves its own range, and fills the buckets whose lower cut it holds, sieving on to their upper cut.
    """
    head, head_limit, limit, x = table._head, table._head_limit, table.limit, math.floor(x)
    span = 2 * max(1, _SEGMENT_SIZE // 2)  # integers per segment, the first from 3 (and 2 with it)
    first, last = max(0, (x - 2) // span), max(0, (limit - 3) // span)
    cuts, fill = tail or (np.zeros(1, dtype=np.int64), None)
    owned = np.searchsorted(np.clip((cuts[:-1] - 3) // span, first, last), np.arange(first, last + 2))
    odd = table.upto(math.isqrt(limit))[1:]
    local = threading.local()  # a worker's sieve array, reused: a new one per segment faults its pages in again

    def piece(i: int) -> list:
        n, b0, b1 = first + i, owned[i], owned[i + 1]
        lo, hi = 3 + span * n, min(3 + span * (n + 1), limit + 1)
        end = min(max(hi, int(cuts[b1]) + 2), limit + 1) if b1 > b0 else hi
        if end - 1 <= head_limit:
            p = head[np.searchsorted(head, lo if n else 2) : np.searchsorted(head, end)]
        else:
            if len(getattr(local, "seg", ())) < (end - lo + 1) // 2:
                local.seg = np.empty((end - lo + 1) // 2, dtype=bool)
            p = _odd_primes(lo, end, odd, local.seg)
            p = np.append(2, p) if n == 0 else p
            p.setflags(write=False)
        if b1 > b0 and p.size:
            fill(p, b0, b1)
        own = p[np.searchsorted(p, x, side="right") : np.searchsorted(p, hi)]
        return [fn(own[c : c + _CHUNK]) for c in range(0, own.size, _CHUNK)] if fn else []

    return [value for values in _map_pieces(piece, last - first + 1, limit) for value in values]


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


def _power_total(parts: list) -> np.ndarray:
    """[sum p^-d for d = 1..5], read-only, from the chunks' :func:`_power_parts`, each added up exactly."""
    parts = np.reshape(parts, (-1, 6)).T
    sums = np.array([math.fsum(parts[:2].ravel()), *map(math.fsum, parts[2:])])
    sums.setflags(write=False)
    return sums


@one_blas_thread()
def _tail_pass(table: PrimeTable, cut: int, buckets: int, fn) -> tuple:
    """(:meth:`PrimeTable.tail_sums`, [fn(chunk) for the chunks of the primes > cut]): the d = 1 rows of
    :func:`_tail_rows`, then the d >= 2 series of :func:`_tail_series` in them; the arrays are made read-only."""
    vbar, T, v0, width, parts = _tail_rows(table, cut, buckets, fn=fn)
    S = _tail_series(T, vbar, math.log(table.limit))
    for array in (vbar, S):
        array.setflags(write=False)
    return (vbar, S, v0, width), parts


def _tail_rows(table: PrimeTable, cut: int, buckets: int, extra: int = 0, fn=None) -> tuple:
    """(vbar, T, v0, width, [fn(chunk) for the chunks of the primes > cut]) of :meth:`PrimeTable.tail_sums`,
    T[i, b] = sum_{p in b} p^-1 u_p^i, u_p = v_p - vbar_b, i < 4 + m + extra, in one :func:`_walk`: a piece
    takes v_p and p^-1 of all the buckets it fills into its worker's buffer and forms there, row after row, the
    terms p^-1 u_p^i in place, each row with one product by u_p and one ``np.add.reduceat`` over the buckets.
    m is the series order :func:`_tail_series` needs: with x = 3L width, L = log limit, its cut is at most
    x^m e^2x / m! of sum_p p^-d |u_p|^j, and m is the least order keeping that <= 1e-17 (7 at 4096 buckets,
    N = 10^8).  Its terms add up to at most e^2x times that sum, so rounding grows up to e^2x-fold over direct
    sums' (<= 6.4e-16): x > 1/2, where that passes e and 4 + m the 20 direct rows, raises DomainError."""
    log_n = math.log(table.limit)
    first = table.after(cut)
    if first is None:
        raise DomainError(f"no primes past {cut} to bucket")
    v0, v1 = np.log(np.array([first, table.last()[-1]])) / log_n
    edges = np.linspace(v0, v1 * (1 + 1e-12), buckets + 1)
    width = float(edges[-1] - edges[0]) / buckets
    x, order = 3 * log_n * width, 1
    if x > 0.5:
        raise DomainError(f"{buckets} buckets are too coarse for the tail series: 3 log N * width = {x:.3g} > 1/2")
    while x**order * math.exp(2 * x) / math.factorial(order) > 1e-17:
        order += 1
    vbar, T = np.zeros(buckets), np.zeros((4 + order + extra, buckets))
    cuts = np.floor(np.exp(edges * log_n)).astype(np.int64)
    local = threading.local()  # a worker's v and 1/p buffer, reused: a new one per piece faults its pages in again

    def fill(p: np.ndarray, b0: int, b1: int) -> None:
        """vbar and T of the buckets b0 <= b < b1, whose primes p holds with their neighbours: bucket b starts past
        the primes up to its integer cut, but for one within rounding of e^{edges[b] log N}, settled by its v_q."""
        e = edges[b0 : b1 + 1]
        s = np.searchsorted(p, cuts[b0 : b1 + 1], side="right")
        below, at = np.log(p[np.clip([s - 1, s], 0, p.size - 1)]) / log_n
        s += ((s < p.size) & (at < e)).astype(np.int64) - ((s > 0) & (below >= e))
        full = np.flatnonzero(np.diff(s))  # the nonempty buckets, from b0
        b, starts, counts, q = b0 + full, s[full] - s[0], np.diff(s)[full], p[s[0] : s[-1]]
        if len(getattr(local, "buf", ())) < 2 * q.size:
            local.buf = np.empty(2 * q.size)
        v, term = local.buf[: 2 * q.size].reshape(2, q.size)
        np.log(q, out=v)
        v /= log_n
        vbar[b] = np.add.reduceat(v, starts) / counts
        v -= np.repeat(vbar[b], counts)
        T[0, b] = np.add.reduceat(np.divide(1.0, q, out=term), starts)
        for j in range(1, T.shape[0]):
            T[j, b] = np.add.reduceat(np.multiply(term, v, out=term), starts)

    parts = _walk(table, cut, fn, (cuts, fill))
    return vbar, T, float(edges[0]), width, parts


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


def _entries(first: int, stop: int, odd: np.ndarray, seg: np.ndarray | None = None) -> np.ndarray:
    """The entries i (int64) of the primes first + 2i in [first, stop), first odd and past 2: each odd base
    prime p in ``odd`` (all of them up to sqrt(stop - 1)) crosses out its odd multiples from max(p^2, first),
    every p-th entry, in ``seg`` if given (a bool array long enough, reused) or a new array."""
    size = (stop - first + 1) // 2
    if seg is None:
        seg = np.ones(size, dtype=bool)
    else:
        seg = seg[:size]
        seg[:] = True
    # the first odd multiple of p at or past max(p^2, first), as an entry index
    start = np.maximum(odd * odd, -(-first // odd) * odd)
    start += odd * (start % 2 == 0)
    for p, i in zip(odd.tolist(), ((start - first) // 2).tolist()):
        seg[i::p] = False
    return np.flatnonzero(seg)


def _odd_primes(first: int, stop: int, odd: np.ndarray, seg: np.ndarray | None = None) -> np.ndarray:
    """The primes in [first, stop) as int64, first odd and past 2 (see :func:`_entries`)."""
    primes = _entries(first, stop, odd, seg)
    primes *= 2
    primes += first
    return primes


def _sieve(limit: int) -> np.ndarray:
    """Odd-only segmented Eratosthenes sieve; returns int64 array of primes <= limit.

    The odd base primes <= sqrt(limit) come from this sieve itself (a literal
    table below 9).  A segment spans ``_SEGMENT_SIZE`` integers from an odd
    ``first`` and stores only its odd ones (:func:`_entries`).  Segments are
    independent pieces of :func:`_map_pieces` that return their primes'
    entries as uint32; their counts size the one int64 table, and pieces
    again write each segment's first + 2i into its slice.
    """
    if limit < 9:  # no odd base prime: 3^2 = 9
        return np.array([p for p in (2, 3, 5, 7) if p <= limit], dtype=np.int64)
    odd = _sieve(math.isqrt(limit))[1:]
    span = 2 * max(1, _SEGMENT_SIZE // 2)

    def segment(n: int) -> np.ndarray:
        first = 3 + span * n
        return _entries(first, min(first + span, limit + 1), odd).astype(np.uint32)

    entries = _map_pieces(segment, len(range(3, limit + 1, span)), limit)
    stops = np.cumsum([1] + [e.size for e in entries])
    table = np.empty(stops[-1], dtype=np.int64)
    table[0] = 2

    def write(n: int) -> None:
        out = table[stops[n] : stops[n + 1]]
        np.add(entries[n], entries[n], out=out)
        out += 3 + span * n
        entries[n] = None

    _map_pieces(write, len(entries), limit)
    return table


def sieve_primes(limit: int) -> PrimeTable:
    """Return the (cached) table of all primes <= limit.

    The primes a table holds as an array, all of them below ``_PARALLEL_LIMIT``
    and those below it from it on, are a read-only view of a cached array that
    holds them, or else sieved (past the gate on the workers, up to the gate).
    Raises DomainError for limit < 2 (there is no nonempty table).
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"prime table needs limit >= 2, got {limit}")
    held = min(limit, _PARALLEL_LIMIT - 1)
    with _CACHE_LOCK:
        table = _TABLE_CACHE.get(limit)
        if table is None:
            sources = [t._head for t in _TABLE_CACHE.values() if t._head_limit >= held]
            arr = min(sources, key=len) if sources else _sieve(min(limit, _PARALLEL_LIMIT))
            table = PrimeTable(limit=limit, primes=arr[: np.searchsorted(arr, held, side="right")])
            _TABLE_CACHE[limit] = table
    return table


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit (0 for limit < 2)."""
    limit = int(limit)
    if limit < 2:
        return 0
    return sieve_primes(limit).count()


# P(d) = sum_p p^-d for d = 2..5, the prime zeta function correctly rounded (mpmath.primezeta at 50 digits)
_PRIME_ZETA = np.array([0.4522474200410655, 0.17476263929944352, 0.07699313976424685, 0.035755017483924255])


def prime_zeta_tails(limit: int) -> np.ndarray:
    """[sum_{p > limit} p^-d for d = 2..5]: the prime zeta function P(d) (``_PRIME_ZETA``) less the head
    sum_{p <= limit} p^-d, each summed exactly (``math.fsum``) since the first terms outweigh the rest.
    Each value is within 1e-16 of its tail (a few roundings of P(d) <= 0.46), not of its size."""
    head = sieve_primes(limit).map_chunks(lambda p: [math.fsum(p ** -float(d)) for d in range(2, 6)])
    return _PRIME_ZETA - [math.fsum(column) for column in zip(*head)]
