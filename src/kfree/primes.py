"""Prime generation, counting and prime sums shared by every other module.

One odd-only segmented sieve serves every limit.  Below ``_PARALLEL_LIMIT`` = 2^24 a table is one read-only
int64 array, cached behind a lock, and a smaller limit is a read-only view of a larger cached table.  From the
gate on, a table keeps only its head, the primes below 2^24 (8.6 MB, sieved once and shared), and its last
few primes; every pass over it (:func:`_walk`) sieves the segments past the head, and each segment's primes are
consumed and dropped inside its own piece, so no pi(N)-long array exists unless a caller reads
:attr:`PrimeTable.primes`.  The Euler-product sums map a table's chunks in order
(:meth:`PrimeTable.map_chunks`); past a split they read its cached power sums
(:meth:`PrimeTable.power_sums`, and FastCharfn's bucketed :meth:`PrimeTable.tail_sums`, whose pass fills
both), and past the table the prime zeta function P(2..5) as literals (:func:`prime_zeta_tails`).  A pass's
pieces are the sieve's segments and stand alone: no chunk spans two, and the piece holding a bucket's lower cut
sieves on to its upper one.  So from the gate on they go to kfree's workers in any order, and no value depends
on the worker count, nor on whether the primes came from an array or from the sieve.
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
# (frequency block, chunk) arrays and the tail power sums' bucket groups
_CHUNK = 1 << 14

# pieces go to workers from this prime limit on (pi(2^24) ~ 2^20 primes): on a
# 2-core host the 10^8 sieve, build and partition sum ran 1.4-1.5x faster, while
# the 10^7 tables of `kfree constant` and `dickman` saved <= 0.03 s for 30-40% more CPU;
# from it on, too, a table streams its primes past the head instead of holding them
_PARALLEL_LIMIT = 1 << 24

# integers at the end of a streamed table whose primes it keeps (about 450 at 10^8)
_LAST_SPAN = 1 << 13

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


class PrimeTable:
    """All primes up to ``limit``, strictly increasing.

    ``primes`` holds them all below ``_PARALLEL_LIMIT``, and from it on only those below it, the head: every
    pass (:func:`_walk`) then sieves the rest segment by segment, and the first pass to the end keeps their sizes,
    which place an index past the head.  Indexing reads the head or the last primes where they hold the answer,
    and reading :attr:`primes` sieves the whole array once and keeps it.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self._head, self._head_limit = primes, min(self.limit, _PARALLEL_LIMIT - 1)
        self._sizes = np.zeros(0, dtype=np.int64) if self._head_limit == self.limit else None
        primes.setflags(write=False)

    @property
    def primes(self) -> np.ndarray:
        """All the primes as one read-only int64 array; past the gate it is sieved when first read."""
        if self._head_limit < self.limit:
            full = _sieve(self.limit)
            full.setflags(write=False)
            self._head, self._head_limit, self._sizes = full, self.limit, np.zeros(0, dtype=np.int64)
        return self._head

    @functools.cached_property
    def _last(self) -> np.ndarray:
        """The primes in the last ``_LAST_SPAN`` integers up to the limit."""
        first = max(3, self.limit - _LAST_SPAN) | 1
        return _odd_primes(first, self.limit + 1, _sieve(math.isqrt(self.limit))[1:])

    def __len__(self) -> int:
        return self.count()

    def __iter__(self):
        return iter(int(p) for p in self.primes)

    def __getitem__(self, index):
        """primes[index]; past the gate the head answers an index or a slice [:i] inside it, the last primes
        a negative index among them, and a pass over its segment, once the table is counted, a later index."""
        head = self._head
        if isinstance(index, slice):
            stop = -1 if index.stop is None or index.start or index.step else index.stop
            return (head if 0 <= stop <= head.size or self._head_limit == self.limit else self.primes)[index]
        if self._head_limit == self.limit or 0 <= index < head.size:
            return head[index]
        if index >= 0:
            return self.map_chunks(lambda p: p[0], index, index + 1)[0]
        return self._last[index] if index >= -self._last.size else self.primes[index]

    def count(self) -> int:
        """The head's size plus the sizes of the segments past it, which a pass to the end counts."""
        if self._sizes is None:
            _walk(self, 0)
        return self._head.size + int(self._sizes.sum())

    def count_below(self, x: float) -> int:
        """Number of table primes <= x (valid for x <= limit)."""
        if x > self._head_limit:
            return self.count() if x >= self.limit else sieve_primes(math.floor(x)).count()
        return int(np.searchsorted(self._head, x, side="right"))

    def map_chunks(self, fn, start: int = 0, stop: int | None = None) -> list:
        """[fn(chunk) for each chunk of primes[start:stop] in order], a chunk being up to ``_CHUNK`` primes of one
        sieve segment as a read-only int64 array, which float arithmetic converts on the fly: one :func:`_walk`,
        after the pass that counts the table if start or stop lies past its head."""
        return _walk(self, start, stop, fn)

    def power_sums(self, split: int) -> np.ndarray:
        """[sum p^-d for d = 1..5] over primes[split:], read-only: one pass per (limit, split), cached
        (a :meth:`tail_sums` pass fills it too), in which each chunk's :func:`_power_parts` are added
        up exactly (``math.fsum``)."""
        key = (self.limit, int(split))
        with _CACHE_LOCK:
            if key not in _POWER_CACHE:
                with one_blas_thread():
                    _POWER_CACHE[key] = _power_total(self.map_chunks(_power_parts, split))
            return _POWER_CACHE[key]

    def tail_sums(self, split: int, buckets: int) -> tuple:
        """(vbar, S, v0, width), alpha-free sums of primes[split:] in ``buckets`` buckets of
        v_p = log p / log limit, each ``width`` wide from v0: S[d - 1, j, b] = sum_{p in b} p^-d
        (v_p - vbar_b)^j, d, j <= 4, vbar_b the bucket's mean v_p (0 if empty).  FastCharfn's layout;
        the plain sums are :meth:`power_sums`, which the same pass fills for ``split`` when they are
        not cached yet.  One pass per (limit, split, buckets), cached; the arrays are read-only.
        S[d >= 2] is a series in the d = 1 rows, within 1e-14 of sum_p p^-d |v_p - vbar_b|^j; a
        coarser layout raises DomainError."""
        key = (self.limit, int(split), int(buckets))
        with _CACHE_LOCK:
            if key not in _TAIL_CACHE:
                power = key[:2] not in _POWER_CACHE
                _TAIL_CACHE[key], parts = _tail_pass(self, split, buckets, _power_parts if power else None)
                if power:
                    _POWER_CACHE[key[:2]] = _power_total(parts)
            return _TAIL_CACHE[key]


def _walk(table: PrimeTable, start: int, stop: int | None = None, fn=None, tail=None) -> list:
    """[fn(chunk) for each chunk of primes[start:stop]] (none without ``fn``), a chunk being up to ``_CHUNK``
    primes of one sieve segment from primes[start] or the segment's first prime; with ``tail`` = (cuts, fill),
    also ``fill(p, b0, b1)`` on buckets b0 <= b < b1 of primes[start:], bucket b from the integer cuts[b]: the
    one pass over a table.

    Its pieces, run as :func:`_map_pieces`, are :func:`_sieve`'s segments from the one holding primes[start], and
    each stands alone: it takes the slice of the table's array that it covers or, past it, sieves its own range,
    and fills the buckets whose lower cut it holds, sieving on to their upper cut.  A pass over every segment past
    the head keeps their sizes, which place an index past the head (:meth:`PrimeTable.count`).
    """
    if stop is not None and start >= stop:
        return []
    head, head_limit, limit = table._head, table._head_limit, table.limit
    if table._sizes is None and max(start, stop or 0) > head.size:
        table.count()
    span = 2 * max(1, _SEGMENT_SIZE // 2)  # integers per segment, the first from 3
    lows = 3 + span * np.arange(max(1, len(range(3, limit + 1, span))))
    highs = np.minimum(lows + span, limit + 1)
    streamed = int(np.searchsorted(highs - 1, head_limit, side="right"))  # the first segment not in the head
    firsts = np.append(0, np.searchsorted(head, lows[1:]))  # each segment's first index; a floor past the gate's
    if table._sizes is not None:
        firsts[streamed + 1 :] += np.cumsum(table._sizes)[:-1]
    first = int(np.searchsorted(firsts[: None if table._sizes is not None else streamed + 1], start, "right")) - 1
    last = lows.size - 1 if stop is None else int(np.searchsorted(firsts, stop - 1, side="right")) - 1
    cuts, fill = tail or (np.zeros(1, dtype=np.int64), None)
    owned = np.searchsorted(np.clip((cuts[:-1] - 3) // span, first, last), np.arange(first, last + 2))
    odd = _sieve(math.isqrt(limit))[1:] if head_limit < limit else None
    local = threading.local()  # a worker's sieve array, reused: a new one per segment faults its pages in again

    def piece(i: int) -> tuple:
        n, b0, b1 = first + i, owned[i], owned[i + 1]
        lo, hi = int(lows[n]), int(highs[n])
        end = min(max(hi, int(cuts[b1]) + 2), limit + 1) if b1 > b0 else hi
        if end - 1 <= head_limit:
            p = head[firsts[n] : np.searchsorted(head, end)]
        else:
            if len(getattr(local, "seg", ())) < (end - lo + 1) // 2:
                local.seg = np.empty((end - lo + 1) // 2, dtype=bool)
            p = _odd_primes(lo, end, odd, local.seg)
            p = np.append(2, p) if n == 0 else p
            p.setflags(write=False)
        if b1 > b0 and p.size:
            fill(p, b0, b1)
        own = p[: np.searchsorted(p, hi)]
        a, b = np.clip([start - firsts[n], own.size if stop is None else stop - firsts[n]], 0, own.size)
        chunks = [own[c : min(c + _CHUNK, b)] for c in range(a, b, _CHUNK)] if fn else []
        return own.size - int(np.searchsorted(own, head_limit, side="right")), [fn(chunk) for chunk in chunks]

    out = _map_pieces(piece, last - first + 1, limit)
    if table._sizes is None and stop is None and first <= streamed:
        table._sizes = np.array([size for size, _ in out[streamed - first :]], dtype=np.int64)
    return [value for _, values in out for value in values]


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
def _tail_pass(table: PrimeTable, split: int, buckets: int, fn) -> tuple:
    """(:meth:`PrimeTable.tail_sums`, [fn(chunk) for the chunks of primes[split:]]): the d = 1 rows of
    :func:`_tail_rows`, then the d >= 2 series of :func:`_tail_series` in them; the arrays are made read-only."""
    vbar, T, v0, width, parts = _tail_rows(table, split, buckets, fn=fn)
    S = _tail_series(T, vbar, math.log(table.limit))
    for array in (vbar, S):
        array.setflags(write=False)
    return (vbar, S, v0, width), parts


def _tail_rows(table: PrimeTable, split: int, buckets: int, extra: int = 0, fn=None) -> tuple:
    """(vbar, T, v0, width, [fn(chunk) for the chunks of primes[split:]]) of :meth:`PrimeTable.tail_sums`,
    T[i, b] = sum_{p in b} p^-1 u_p^i, u_p = v_p - vbar_b, i < 4 + m + extra, in one :func:`_walk`, over
    groups of whole buckets of about ``_CHUNK`` primes, each with one ``np.add.reduceat``.
    m is the series order :func:`_tail_series` needs: with x = 3L width, L = log limit, its cut is at most
    x^m e^2x / m! of sum_p p^-d |u_p|^j, and m is the least order keeping that <= 1e-17 (7 at 4096 buckets,
    N = 10^8).  Its terms add up to at most e^2x times that sum, so rounding grows up to e^2x-fold over direct
    sums' (<= 6.4e-16): x > 1/2, where that passes e and 4 + m the 20 direct rows, raises DomainError."""
    log_n = math.log(table.limit)
    v0, v1 = np.log(np.array([table[split], table[-1]])) / log_n
    edges = np.linspace(v0, v1 * (1 + 1e-12), buckets + 1)
    width = float(edges[-1] - edges[0]) / buckets
    x, order = 3 * log_n * width, 1
    if x > 0.5:
        raise DomainError(f"{buckets} buckets are too coarse for the tail series: 3 log N * width = {x:.3g} > 1/2")
    while x**order * math.exp(2 * x) / math.factorial(order) > 1e-17:
        order += 1
    vbar, T = np.zeros(buckets), np.zeros((4 + order + extra, buckets))
    cuts = np.floor(np.exp(edges * log_n)).astype(np.int64)

    def fill(p: np.ndarray, b0: int, b1: int) -> None:
        """vbar and T of the buckets b0 <= b < b1, whose primes p holds with their neighbours: bucket b starts past
        the primes up to its integer cut, but for one within rounding of e^{edges[b] log N}, settled by its v_q."""
        e = edges[b0 : b1 + 1]
        s = np.searchsorted(p, cuts[b0 : b1 + 1], side="right")
        below, at = np.log(p[np.clip([s - 1, s], 0, p.size - 1)]) / log_n
        s += ((s < p.size) & (at < e)).astype(np.int64) - ((s > 0) & (below >= e))
        full = np.flatnonzero(np.diff(s))  # the nonempty buckets, from b0
        bounds = np.append(s[full], s[-1])  # bucket b0 + full[i] is p[bounds[i] : bounds[i + 1]]
        groups = np.searchsorted(bounds, np.arange(s[0], s[-1], _CHUNK), side="right") - 1
        groups = np.unique(np.append(groups, full.size))
        rows, buffer = T.shape[0], np.empty(T.shape[0] * int(np.diff(bounds[groups]).max(initial=0)))
        for g0, g1 in zip(groups[:-1], groups[1:]):
            lo, hi, b, counts = bounds[g0], bounds[g1], b0 + full[g0:g1], np.diff(bounds[g0 : g1 + 1])
            v = np.log(p[lo:hi]) / log_n
            vbar[b] = np.add.reduceat(v, bounds[g0:g1] - lo) / counts
            v -= np.repeat(vbar[b], counts)
            terms = buffer[: rows * (hi - lo)].reshape(rows, hi - lo)
            np.divide(1.0, p[lo:hi], out=terms[0])
            for j in range(1, rows):
                np.multiply(terms[j - 1], v, out=terms[j])
            T[:, b] = np.add.reduceat(terms, bounds[g0:g1] - lo, axis=1)

    parts = _walk(table, split, None, fn, (cuts, fill))
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
