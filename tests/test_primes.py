"""Prime table tests against an independent pure-Python oracle.

Frozen counts (all re-derived here by a second, structurally different sieve;
the large ones additionally cross-checked against sympy.primepi once during
development): pi(10^6) = 78498, pi(10^7) = 664579, pi(10^8) = 5761455.
"""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from kfree import (
    DomainError,
    EnsembleConfig,
    FastCharfn,
    _threads,
    limit_deviation_scan,
    partition_constant,
    partition_function,
    prime_count,
    primes,
    sieve_primes,
    theorem1_ratio_scan,
)
from kfree.primes import prime_zeta_tails
from oracles import tail_sums_long_double


def oracle_sieve(limit):
    """Independent oracle: classic boolean-list sieve, no numpy."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def test_small_tables_match_oracle():
    for limit in [2, 3, 4, 10, 30, 97, 1000, 7919, 20000]:
        got = list(sieve_primes(limit))
        assert got == oracle_sieve(limit), f"limit={limit}"


def test_hand_examples():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]
    assert sieve_primes(30).count() == 10
    assert prime_count(1) == 0
    assert prime_count(100) == 25


def test_frozen_large_counts(table_1e6):
    assert table_1e6.count() == 78498
    # 664579 is the long-established value of pi(10^7)
    assert prime_count(10**7) == 664579


def test_segmented_sieve_agrees_with_plain():
    # a limit just past 10^7 against the 10^7 table and the oracle
    limit = 10**7 + 30000
    seg = sieve_primes(limit)
    lo = sieve_primes(10**7)
    assert np.array_equal(seg.upto(10**7), lo.primes)
    tail = [int(p) for p in seg.primes[lo.count() :]]
    assert tail == [p for p in oracle_sieve(limit) if p > 10**7]


@pytest.mark.parametrize("segment", [2, 6, 64, 1000])
def test_small_segments_match_simple_sieve(monkeypatch, segment):
    # Odd, even, prime and p^2 limits spanning many segments, and tiny
    # limits whose table is the base primes: the odd-only segments must give
    # the plain oracle sieve's table exactly.
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", segment)
    for limit in (2, 3, 4, 9, 10, 25, 49, 50, 9_999, 10_000, 10_007, 97**2):
        got, want = primes._sieve(limit), oracle_sieve(limit)
        assert got.dtype == np.int64 and got.tolist() == want, limit


def test_smaller_limit_is_sliced_from_a_larger_table(monkeypatch):
    # past 10^7 as below it: once a larger table is cached, a smaller limit
    # never sieves again
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    big = sieve_primes(10**7 + 30000)

    def no_sieve(limit):
        raise AssertionError(f"sieved {limit} again")

    monkeypatch.setattr(primes, "_sieve", no_sieve)
    for limit in (10**7 + 20011, 10**7 + 1, 10**6):
        got = sieve_primes(limit)
        assert got.limit == limit
        assert np.array_equal(got.primes, big.upto(limit))


def test_sliced_table_is_a_read_only_view(monkeypatch):
    # a smaller limit shares the cached larger table's memory and cannot write to it
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    big = sieve_primes(200_003)
    small = sieve_primes(100_000)
    assert np.shares_memory(small.primes, big.primes)
    assert not small.primes.flags.writeable
    assert np.array_equal(small.primes, primes._sieve(100_000))
    with pytest.raises(ValueError):
        small.primes[0] = 4


@pytest.mark.parametrize("limit", [10**7, 2**24 + 1001], ids=["1e7", "past-parallel-limit"])
def test_sieve_keeps_one_int64_table(limit):
    # the segments hand back uint32 entries and write into one int64 table, so the
    # peak stays well under two copies of it, on one worker or several
    tracemalloc.start()
    try:
        table = primes._sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int64 and table.size == prime_count(limit)
    assert table.nbytes <= peak < 1.6 * table.nbytes, peak / table.nbytes


def test_fast_build_and_z_at_1e8_hold_no_full_table(monkeypatch):
    # from cold caches, FastCharfn and Z at 10^8 keep the 2^24 head (8.6 MB) and, per worker, one
    # segment in flight; the 5,761,455-prime table they read once took 46 MB, at a 69.2 MB peak
    for cache in ("_TABLE_CACHE", "_POWER_CACHE", "_TAIL_CACHE"):
        monkeypatch.setattr(primes, cache, {})
    monkeypatch.setattr(_threads, "workers", lambda blocks: min(2, blocks))
    cfg = EnsembleConfig(k=2, alpha=1.0, N=10**8)
    tracemalloc.start()
    try:
        FastCharfn(cfg)
        partition_function(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


def test_streamed_sums_at_1e9_bracket_the_prime_zeta_function():
    # P(d) = sum_p p^-d, d = 2..5, from mpmath at 40 digits: the primes <= 10^4 exactly, the streamed
    # power sums up to N = 10^9 (the 50,847,534-prime table would take 388 MB) and a tail bound.  With
    # Dusart's pi(x) <= x / L (1 + 1 / L + 2.53816 / L^2), L = log x (Ramanujan J. 45, 2018, Thm 5.1),
    # sum_{p > N} p^-d = -pi(N) N^-d + d int_N^inf pi(t) t^-d-1 dt is at most
    # d sum_k c_k L^(1-k) E_k((d - 1) L) - pi(N) N^-d, c = (1, 1, 2.53816), L = log N.  A slack of 1e-15
    # of the streamed sum covers its rounding (4e-16 relative at d = 5 here); at d = 2 and 3 the tail
    # bound is far wider than the slack, and a segment missing from the stream would break it.
    N = 10**9
    table = sieve_primes(N)
    sums = table.power_sums(10**4)
    assert table.count() == 50847534
    with mpmath.workdps(40):
        log_n = mpmath.log(N)
        for d in range(2, 6):
            terms = ((1, 1), (2, 1), (3, mpmath.mpf("2.53816")))
            bound = d * mpmath.fsum(c * log_n ** (1 - k) * mpmath.expint(k, (d - 1) * log_n) for k, c in terms)
            bound -= table.count() * mpmath.mpf(N) ** -d
            s = mpmath.mpf(float(sums[d - 1]))
            low = mpmath.fsum(mpmath.mpf(int(p)) ** -d for p in table.upto(10**4)) + s - 1e-15 * s
            assert low <= mpmath.primezeta(d) <= low + bound + 2e-15 * s, d


@pytest.mark.parametrize(
    "scan",
    [
        lambda ladder: limit_deviation_scan(2, 1.0, (1.0,), ladder),
        lambda ladder: partition_constant(2, 1.0, ladder),
        lambda ladder: theorem1_ratio_scan(2, 1.0, ladder),
    ],
    ids=["limit_deviation_scan", "partition_constant", "theorem1_ratio_scan"],
)
def test_ladders_sieve_only_their_largest_table(monkeypatch, scan):
    # the rungs walk N upward, so the largest table is made first and the
    # smaller rungs are slices of it
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    sieve, sieved = primes._sieve, []
    monkeypatch.setattr(primes, "_sieve", lambda limit: sieved.append(limit) or sieve(limit))
    scan((10**4, 10**3, 10**5))
    assert [limit for limit in sieved if limit in (10**3, 10**4, 10**5)] == [10**5]


def test_cache_is_safe_to_share_across_threads(monkeypatch):
    # four threads add tables while the others look for a larger one to
    # slice, switching often: no lookup may see the cache change under it
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    errors, interval = [], sys.getswitchinterval()

    def fill(offset):
        try:
            for limit in range(16 + offset, 3000, 4):
                sieve_primes(limit)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    want = np.array(oracle_sieve(3000))
    assert len(primes._TABLE_CACHE) == 2984
    for limit, table in primes._TABLE_CACHE.items():
        assert np.array_equal(table.primes, want[want <= limit]), limit


def test_tail_sums_run_once_per_key_across_threads(monkeypatch):
    # eight threads ask for the same four keys in different orders, switching
    # often: a check-then-act race would run a pass twice and hand out two objects
    monkeypatch.setattr(primes, "_TAIL_CACHE", {})
    table = sieve_primes(10**5)
    keys = (16, 32, 64, 128)
    got, errors, interval = [], [], sys.getswitchinterval()

    def ask(offset):
        try:
            for i in range(len(keys)):
                buckets = keys[(i + offset) % len(keys)]
                got.append((buckets, id(table.tail_sums(10**4, buckets))))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(got) == 32
    cached = {key[2]: id(sums) for key, sums in primes._TAIL_CACHE.items()}
    assert sorted(cached) == list(keys) and all(cached[buckets] == ident for buckets, ident in got)


def test_chunks_cover_the_table_in_order(table_1e6):
    # read-only int64 views of the table, no copies; a value cut x keeps the primes > x, and
    # chunks count from the first of them
    chunks = table_1e6.map_chunks(lambda p: p)
    assert [c.size for c in chunks[:-1]] == [primes._CHUNK] * (len(chunks) - 1)
    assert 0 < chunks[-1].size <= primes._CHUNK
    assert all(c.dtype == np.int64 and not c.flags.writeable and c.base is not None for c in chunks)
    assert np.array_equal(np.concatenate(chunks), table_1e6.primes)
    for x in (10**4, 10_006, 10_006.5):
        tail = table_1e6.map_chunks(lambda p: p, x)
        assert tail[0][0] == 10_007 and [c.size for c in tail[:-1]] == [primes._CHUNK] * (len(tail) - 1)
        assert np.array_equal(np.concatenate(tail), table_1e6.primes[1229:])
    assert table_1e6.map_chunks(len, 10_007)[0] == primes._CHUNK
    assert table_1e6.map_chunks(len, 999_983) == table_1e6.map_chunks(len, 10**6) == []


def test_tail_sums_are_the_plain_sums_once_per_key(table_1e6):
    # one pass per (limit, x, buckets), kept read-only; its per-bucket sums
    # add up to the plain power sums of the tail, and each bucket mean lies in its bucket
    sums = table_1e6.tail_sums(10**4, 64)
    assert table_1e6.tail_sums(10**4, 64) is sums and table_1e6.tail_sums(10**4, 128) is not sums
    vbar, S, v0, width = sums
    assert not vbar.flags.writeable and not S.flags.writeable
    p = table_1e6.primes[1229:].astype(float)
    for d in range(1, 5):
        assert S[d - 1, 0].sum() == pytest.approx(math.fsum(p**-d), rel=1e-15)
    v = np.log(p) / math.log(10**6)
    assert v0 == v[0] and width == pytest.approx((v[-1] - v[0]) / 64, rel=1e-11)
    lower = v0 + width * np.arange(64)
    assert np.all((vbar >= lower) & (vbar < lower + width))
    # the pass finds each bucket's first prime without a full-length v; the
    # means of the runs a full-length searchsorted gives match it bit for bit
    for buckets in (64, 4096, 1 << 16):
        edges = np.linspace(v[0], v[-1] * (1 + 1e-12), buckets + 1)
        starts = np.searchsorted(v, edges)
        full = np.flatnonzero(np.diff(starts))
        want = np.zeros(buckets)
        want[full] = np.add.reduceat(v, starts[full]) / np.diff(np.append(starts[full], v.size))
        assert np.array_equal(table_1e6.tail_sums(10**4, buckets)[0], want)


@pytest.mark.parametrize("limit", [10**5, 10**6])
@pytest.mark.parametrize("buckets", [64, 4096])
def test_tail_sums_match_long_double(limit, buckets):
    # S[d - 1, j, b] = sum_{p in b} p^-d u_p^j, u_p = v_p - vbar_b with v_p in float64 as the pass
    # takes it, against every sum in long double: within 1e-14 of the terms' absolute sums for
    # d = 1 (direct sums) and d >= 2 (a series in the d = 1 rows)
    table = sieve_primes(limit)
    vbar, S = table.tail_sums(10**4, buckets)[:2]
    want, scale = tail_sums_long_double(table.primes[1229:], vbar, limit)
    ok = np.abs(S - want) <= 1e-14 * scale  # False at a NaN too
    assert ok.all(), np.argwhere(~ok)[:5]  # (d - 1, j, b) of the first sums off


def test_tail_sums_refuse_a_coarse_layout():
    # 4 buckets at 10^6 are 3 log N * width = 3.45 wide for the d >= 2 series: refused, by
    # FastCharfn too; 64 buckets (0.22) pass the long-double check above
    table = sieve_primes(10**6)
    with pytest.raises(DomainError, match="^4 buckets"):
        table.tail_sums(10**4, 4)
    with pytest.raises(DomainError, match="^4 buckets"):
        FastCharfn(EnsembleConfig(k=2, alpha=1.0, N=10**6), buckets=4)


@pytest.mark.slow
def test_pi_1e8(table_1e8):
    assert table_1e8.count() == 5761455
    # spot primality of the last listed prime by trial division
    p = int(table_1e8.primes[-1])
    assert all(p % q for q in oracle_sieve(10001) if q * q <= p)


def test_divisor_characterization(rng):
    """Membership in the table iff no divisor in [2, sqrt(n)]."""
    t = sieve_primes(50000)
    in_table = set(int(p) for p in t.primes)
    for n in rng.integers(2, 50000, size=300):
        n = int(n)
        has_div = any(n % d == 0 for d in range(2, int(n**0.5) + 1))
        assert (n in in_table) == (not has_div)


def test_value_reads_and_len(table_1e6):
    assert len(table_1e6) == table_1e6.count()
    assert table_1e6.upto(100).size == 25
    assert table_1e6.upto(2).tolist() == [2]
    assert table_1e6.upto(1.9).size == 0
    cuts = (-1, 1.9, 2, 100, 999_982, 999_983, 10**6)
    assert [table_1e6.after(x) for x in cuts] == [2, 2, 3, 101, 999_983, None, None]
    assert np.array_equal(table_1e6.last(), table_1e6.primes[table_1e6.primes > 10**6 - primes._LAST_SPAN])
    assert np.array_equal(sieve_primes(10).last(), [2, 3, 5, 7])


def test_domain_error():
    with pytest.raises(DomainError):
        sieve_primes(1)


def test_table_immutable(table_1e6):
    with pytest.raises(ValueError):
        table_1e6.primes[0] = 4


def test_prime_zeta_tails_match_mpmath():
    # sum_{p > P} p^-d = P(d) - sum_{p <= P} p^-d against mpmath's prime zeta function at 40 digits:
    # within 1e-16 absolute (the rounding of P(d) <= 0.46), which is what a log sum adds, at d = 2..5
    for limit in (100, 10**4):
        got = prime_zeta_tails(limit)
        head = sieve_primes(limit).primes.tolist()
        with mpmath.workdps(40):
            want = [mpmath.primezeta(d) - mpmath.fsum(mpmath.mpf(p) ** -d for p in head) for d in range(2, 6)]
        assert got.shape == (4,)
        for d, (g, w) in enumerate(zip(got, want), 2):
            assert abs(g - w) <= 1e-16, (limit, d, float(g - w))
    # far below its size at d = 2: the tail past 10^4 is about 1 / (P log P)
    assert prime_zeta_tails(10**4)[0] == pytest.approx(9.8157e-6, rel=1e-4)


def test_prime_zeta_literals_are_correctly_rounded():
    # P(2..5) are mpmath's prime zeta function at 50 digits, each rounded once to a float
    with mpmath.workdps(50):
        want = [float(mpmath.primezeta(d)) for d in range(2, 6)]
    assert primes._PRIME_ZETA.tolist() == want


def test_power_sums_are_the_exact_sums_once_per_key(table_1e6):
    # one pass per (limit, x), read-only; sum p^-1 is the correctly rounded sum of the float
    # terms (their float32 parts sum without rounding), and every sum is within 2e-16 of it
    sums = table_1e6.power_sums(10**4)
    assert table_1e6.power_sums(10**4) is sums and table_1e6.power_sums(10_007) is not sums
    assert not sums.flags.writeable and sums.shape == (5,)
    p = table_1e6.primes[1229:].astype(float)
    assert sums[0] == math.fsum(1.0 / p)
    for d in range(2, 6):
        assert sums[d - 1] == pytest.approx(math.fsum(p**-d), rel=2e-16)
    assert table_1e6.power_sums(10**6).tolist() == [0.0] * 5


def test_tail_series_order_cuts_below_1e_17():
    # the pass's S[d >= 2] is the series of its own d = 1 rows at order m; the same series at m + 4 on
    # the same rows, both in long double, agrees with it within 1e-17 of sum_p p^-d |u_p|^j per bucket,
    # the cut the order is chosen for, where the float rounding of v_p (1e-14) would hide a dropped term
    for limit, buckets in ((10**6, 4096), (10**8 // 64, 512)):
        table = sieve_primes(limit)
        log_n = math.log(limit)
        vbar, T = primes._tail_rows(table, 10**4, buckets, extra=4)[:2]
        order = T.shape[0] - 8
        assert np.array_equal(table.tail_sums(10**4, buckets)[1], primes._tail_series(T[: 4 + order], vbar, log_n))
        got = primes._tail_series(T[: 4 + order].astype(np.longdouble), vbar, log_n)
        want = primes._tail_series(T.astype(np.longdouble), vbar, log_n)
        p = table.primes[1229:].astype(float)
        v = np.log(p) / log_n
        starts = np.searchsorted(v, np.linspace(v[0], v[-1] * (1 + 1e-12), buckets + 1)[:-1])
        full = np.flatnonzero(np.diff(np.append(starts, v.size)))
        u = np.abs(v - np.repeat(vbar[full], np.diff(np.append(starts[full], v.size))))
        for d in range(2, 5):
            for j in range(5):
                scale = np.zeros(buckets)
                scale[full] = np.add.reduceat(p**-d * u**j, starts[full])
                err = np.abs(got[d - 1, j] - want[d - 1, j])
                assert np.all(err <= 1e-17 * scale), (limit, d, j, float(np.max(err / np.maximum(scale, 1e-300))))
