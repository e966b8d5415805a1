"""kfree's thread control: one BLAS thread inside kfree's stages, and its own worker pool."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kfree import DomainError, _threads, primes
from kfree.dickman import h_constant
from kfree.ensemble import (
    EnsembleConfig,
    FastCharfn,
    _log_product,
    _predicted_constant,
    partition_function,
    threshold_prime,
)
from kfree.smoothsum import _symmetric_grid, bump_transform
from oracles import tail_sums_long_double

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def real_blas():
    blas = _threads._openblas()
    if blas is None:
        pytest.skip("numpy's OpenBLAS was not found in this process")
    return blas


class TestOneBlasThread:
    def test_sets_one_thread_and_restores_nested(self, fake_blas):
        with _threads.one_blas_thread():
            assert fake_blas["size"] == 1
            with _threads.one_blas_thread():
                assert fake_blas["size"] == 1
            assert fake_blas["size"] == 1
        assert fake_blas["size"] == 4
        assert fake_blas["sets"] == [1, 4]

    def test_restores_when_the_body_raises(self, fake_blas):
        with pytest.raises(ValueError):
            with _threads.one_blas_thread():
                raise ValueError
        assert fake_blas["size"] == 4

    def test_concurrent_scopes_share_one_count(self, fake_blas):
        # more threads than cores entering and leaving scopes, switching often:
        # every body sees one thread, and the pool is back when the last closes
        seen, interval = [], sys.getswitchinterval()

        def enter_often():
            for _ in range(200):
                with _threads.one_blas_thread():
                    seen.append(fake_blas["size"])

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 1600
        assert fake_blas["size"] == 4 and _threads._scopes[0] == 0
        assert fake_blas["sets"][-1] == 4

    def test_real_pool_restored(self, real_blas):
        before = real_blas.get()
        with _threads.one_blas_thread():
            assert real_blas.get() == 1
        assert real_blas.get() == before

    def test_no_handle_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(_threads, "_openblas", lambda: None)
        with _threads.one_blas_thread():
            pass
        assert _threads.workers(100) == 1
        assert _threads.cap(2) is None
        calls = []
        _threads.map_blocks(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), 10, 4)
        assert calls == [(0, 4, threading.get_ident()), (4, 8, threading.get_ident()), (8, 10, threading.get_ident())]

    def test_library_stages_leave_the_callers_pool(self, real_blas):
        # FastCharfn's build and grid and the bump transform hold BLAS to one
        # thread inside and hand the caller's pool size back, whatever it is
        before = real_blas.get()
        try:
            for pool in sorted({1, before}):
                real_blas.set(pool)
                fast = FastCharfn(EnsembleConfig(k=2, alpha=1.0, N=10**5))
                assert real_blas.get() == pool
                fast.grid(_symmetric_grid(8.0))
                assert real_blas.get() == pool
                bump_transform(_symmetric_grid(8.0))
                assert real_blas.get() == pool
        finally:
            real_blas.set(before)

    def test_no_lookup_at_import(self):
        code = "import sys; sys.path.insert(0, sys.argv[1]); import kfree.cli; print(kfree._threads._openblas.cache_info().misses)"
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestWorkers:
    def test_clamp(self):
        # a pure function of the pool, the cap, the usable CPUs and the blocks
        assert _threads.clamp(2, None, 2, 45) == 2
        assert _threads.clamp(2, 10**6, 2, 45) == 2
        assert _threads.clamp(10**6, 10**6, 3, 45) == 3
        assert _threads.clamp(10**6, None, 10**6, 5) == 5
        assert _threads.clamp(4, 1, 8, 45) == 1
        assert _threads.clamp(1, 10**6, 8, 45) == 1
        assert _threads.clamp(4, None, 8, 0) == 1

    def test_large_caps_are_cut_to_the_cpus_and_blocks(self, monkeypatch):
        # no thread is started: workers only counts
        monkeypatch.setattr(_threads, "_openblas", lambda: _threads._Blas(lambda: 10**6, lambda n: None, 10**6))
        monkeypatch.setattr(_threads, "_cap", 10**6)
        cpus = len(os.sched_getaffinity(0))
        assert _threads.workers(10**9) == cpus
        assert _threads.workers(1) == 1

    def test_cap_sets_workers_and_pool_until_lifted(self, fake_blas):
        lift = _threads.cap(1)
        assert fake_blas["size"] == 1
        assert _threads.workers(100) == 1
        lift()
        assert fake_blas["size"] == 4
        assert _threads._cap is None

    @pytest.mark.parametrize(
        "count,size,pieces",
        [
            (1, 23, [(0, 8), (8, 16), (16, 23)]),
            (2, 23, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 23)]),
            # the last piece of a block is shorter, down to one item
            (2, 21, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 21)]),
            (2, 17, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 17)]),
            (3, 19, [(lo, lo + 2) for lo in range(0, 16, 2)] + [(16, 18), (18, 19)]),
        ],
    )
    def test_blocks_split_over_workers(self, monkeypatch, count, size, pieces):
        # w workers cut each block of 8 into pieces of 8 // w, covering every index once
        monkeypatch.setattr(_threads, "workers", lambda blocks: min(count, blocks))
        seen = []
        _threads.map_blocks(lambda lo, hi: seen.append((lo, hi)), size, 8)
        assert sorted(seen) == pieces


@pytest.mark.parametrize("k,alpha", [(2, 1.0), (2, -1.0), (3, 1 + 0.5j)])
def test_grid_identical_at_one_and_two_workers(table_1e6, monkeypatch, k, alpha):
    # each node's value is computed row by row, so it does not depend on
    # how the panels are shared out
    fast = FastCharfn(EnsembleConfig(k=k, alpha=alpha, N=10**6))
    grid = _symmetric_grid(360.0)
    values = []
    for count in (1, 2):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        values.append(fast.grid(grid))
    assert np.array_equal(values[0], values[1])


@pytest.mark.parametrize("size", [257, 385, 513, 641, 1025])
def test_plain_nodes_identical_at_any_worker_count(table_1e6, monkeypatch, size):
    # sizes whose blocks or pieces end in a single node (385 at 2 workers: 384-385), which
    # gemm multiplies as a row of a larger product; one worker cuts no block into pieces
    fast = FastCharfn(EnsembleConfig(k=2, alpha=1.0, N=10**6))
    lams = np.linspace(-300.0, 300.0, size) + 0.125
    values = []
    for count in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        values.append(fast.grid(lams))
    assert np.array_equal(values[0], values[1]) and np.array_equal(values[0], values[2])


@pytest.mark.parametrize(
    "lams",
    [
        _symmetric_grid(360.0, 4.0),
        _symmetric_grid(1024.0),
        np.linspace(-300.0, 300.0, 193) + 0.125,
        np.arange(97) + 0.25,
    ],
    ids=["R360-h4", "R1024-h1", "plain-193", "mags-97"],
)
def test_bump_transform_identical_at_any_worker_count(monkeypatch, lams):
    # 97 distinct |m| of one shift: a lone column, and at 2 workers the one-row piece 96-97
    values = []
    for count in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        values.append(bump_transform(lams))
    assert np.array_equal(values[0], values[1]) and np.array_equal(values[0], values[2])


def _at_worker_counts(monkeypatch, compute) -> list:
    """compute() below the gate, then past it at 1, 2 and 3 workers."""
    values = [compute()]
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**5)
    for count in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        values.append(compute())
    return values


@pytest.mark.parametrize("k,alpha", [(2, 1.0), (2, -1.0), (3, 1 + 0.5j)])
def test_build_and_products_identical_at_any_worker_count(table_1e6, monkeypatch, k, alpha):
    # past the gate the tail pass's bucket groups, the power sums' chunks and
    # the Euler-product chunks go to the workers, and their sums are taken in
    # piece order; each compute() runs the cached passes afresh
    cfg = EnsembleConfig(k=k, alpha=alpha, N=10**6)

    def compute():
        primes._TAIL_CACHE.clear()
        primes._POWER_CACHE.clear()
        fast = FastCharfn(cfg)
        S = table_1e6.tail_sums(10**4, 4096)[1]  # the cut max(10^4, d*) at these alpha
        products = partition_function(cfg), _predicted_constant(k, alpha)
        return fast._moments, fast._abs4, fast._log_remainder, fast._vbar, S, table_1e6.power_sums(10**4), *products

    values = _at_worker_counts(monkeypatch, compute)
    for got in values[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(values[0], got))


def test_sieve_and_chunked_sum_identical_at_any_worker_count(table_1e6, monkeypatch):
    # segments of 2^16 integers, so the 10^6 sieve has 16 pieces to share out; the
    # Euler-product sum over its 5 chunks adds them in chunk order
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", 1 << 16)
    cfg = EnsembleConfig(k=3, alpha=0.5, N=10**6)
    values = _at_worker_counts(monkeypatch, lambda: (primes._sieve(10**6), _log_product(cfg, lambda p: 0.5 / p)))
    assert np.array_equal(values[0][0], table_1e6.primes)
    assert all(np.array_equal(got[0], values[0][0]) and got[1] == values[0][1] for got in values[1:])


def test_sieve_identical_at_any_worker_count_past_the_real_gate(monkeypatch):
    limit = primes._PARALLEL_LIMIT + 1001
    tables = []
    for count in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        tables.append(primes._sieve(limit))
    assert all(np.array_equal(tables[0], table) for table in tables[1:])
    # pi(2^24) = 1077871, then 56 more primes up to 2^24 + 1001, as the plain oracle sieve lists them
    assert np.searchsorted(tables[0], 1 << 24, side="right") == 1077871
    assert tables[0].size == 1077927 and tables[0][-1] == 16778173


def test_power_sums_identical_at_any_worker_count_past_the_real_gate(monkeypatch):
    # 2^24 + 1001 has 66 chunks past 10^4 to share out; the exact sum of the chunks' sums makes
    # every split of them give the same bits
    table = primes.sieve_primes(primes._PARALLEL_LIMIT + 1001)
    sums = []
    for count in (1, 2, 3):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        monkeypatch.setattr(primes, "_POWER_CACHE", {})
        sums.append(table.power_sums(10**4))
    assert all(np.array_equal(sums[0], got) for got in sums[1:])


def _prime_sums(monkeypatch, table, cuts, buckets=4096) -> list:
    """The power sums from their own pass and from the tail pass, the tail sums past each cut, and every
    chunk past the first cut, each computed afresh."""
    out = []
    for fill_from_tail in (False, True):
        monkeypatch.setattr(primes, "_POWER_CACHE", {})
        monkeypatch.setattr(primes, "_TAIL_CACHE", {})
        for x in cuts:
            if fill_from_tail:
                out += table.tail_sums(x, buckets)
            out.append(table.power_sums(x))
    return out + table.map_chunks(np.copy, cuts[0])


def _straddled(table, cuts, span) -> None:
    """Assert that, in segments of ``span`` integers, a chunk and a bucket (4096 of them) past each cut
    straddle a segment edge."""
    p = table.primes
    v = np.log(p) / np.log(table.limit)
    for split in np.searchsorted(p, cuts, side="right"):
        starts = np.searchsorted(p, 3 + span * np.arange(1, table.limit // span + 1))  # each segment's first prime
        starts = starts[starts > split]
        assert np.any((starts - split) % primes._CHUNK), "a chunk straddles a segment edge"
        bucket = np.searchsorted(np.linspace(v[split], v[-1] * (1 + 1e-12), 4097), v, side="right")
        assert np.any(bucket[starts - 1] == bucket[starts]), "a bucket straddles a segment edge"


def test_streamed_sums_match_the_table_at_any_worker_count(table_1e6, monkeypatch):
    # With the gate at 10^5 and segments of 2^16 integers, a fresh 10^6 table keeps the 9,592 primes
    # below 10^5 and streams the rest in segments of about 4,700 primes: the chunks restart at segment
    # edges, buckets straddle them, which the piece holding a bucket's lower cut sieves on past, and the
    # second cut lies past the gate.  Its sums and chunks are the whole table's at the same segment size,
    # bit for bit, at 1 and 2 workers, and no pass builds the 78,498-prime table.
    span, cuts = 1 << 16, (10**4, 2 * 10**5)
    _straddled(table_1e6, cuts, span)
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", span)
    want = _prime_sums(monkeypatch, table_1e6, cuts)
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**5)
    sieve, sieved = primes._sieve, []
    monkeypatch.setattr(primes, "_sieve", lambda limit: sieved.append(limit) or sieve(limit))
    for count in (1, 2):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        monkeypatch.setattr(primes, "_TABLE_CACHE", {})
        table = primes.sieve_primes(10**6)
        got = _prime_sums(monkeypatch, table, cuts)
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(want, got))
        assert table.count() == table_1e6.count() and table.after(cuts[1]) == table_1e6.after(cuts[1])
        assert np.array_equal(table.last(), table_1e6.last())
    assert max(sieved) <= 10**5  # the head, up to the gate


def _outcome(call):
    """call()'s value, or the type and message of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return (DomainError, str(exc))


def test_value_cuts_on_a_streamed_table(table_1e6, monkeypatch):
    # With the gate at 10^5 and segments of 2^16 integers, a pass past a value cut x starts at the segment
    # holding x + 1, (x - 2) // span: at cuts below 2 and at 2, on and just below a prime, on and just below a
    # segment's first integer, just below the prime 12 * 2^16 + 1 that ends a segment, at the gate, and on the
    # last prime and the limit, the chunks of a fresh
    # streamed 10^6 table are the whole table's primes > x in its chunk layout, and the power sums and the
    # tail sums in 64 buckets are the whole table's bits (or its DomainError: too coarse a layout from 2, no
    # prime past the last) at 1 and 2 workers
    span, p = 1 << 16, table_1e6.primes
    q, edge = table_1e6.after(5 * 10**5), 3 + 2 * span
    cuts = (0, 1, 2, q, q - 1, edge, edge - 1, 12 * span, 10**5 - 1, 10**5, int(p[-1]), 10**6)
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", span)

    def passes(table) -> list:
        primes._POWER_CACHE.clear()
        primes._TAIL_CACHE.clear()
        return [
            (table.map_chunks(np.copy, x), table.power_sums(x), _outcome(lambda: table.tail_sums(x, 64))) for x in cuts
        ]

    monkeypatch.setattr(primes, "_POWER_CACHE", {})
    monkeypatch.setattr(primes, "_TAIL_CACHE", {})
    want = passes(table_1e6)
    for x, (chunks, _, _) in zip(cuts, want):
        assert np.array_equal(np.concatenate([p[:0], *chunks]), p[p > x]), x
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**5)
    for count in (1, 2):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        monkeypatch.setattr(primes, "_TABLE_CACHE", {})
        for x, (chunks, power, tail), got in zip(cuts, want, passes(primes.sieve_primes(10**6))):
            assert len(got[0]) == len(chunks) and all(np.array_equal(a, b) for a, b in zip(chunks, got[0])), x
            assert np.array_equal(got[1], power), x
            assert len(got[2]) == len(tail) and all(np.array_equal(a, b) for a, b in zip(tail, got[2])), x


def test_threshold_prime_sieves_no_further_than_its_cut(monkeypatch):
    # With the gate at 10^5, d* at |alpha| = 2 * 10^4 reads the primes up to 8 |alpha| = 1.6 * 10^5, past the
    # head of a streamed 10^6 table: they come from the table up to 1.6 * 10^5, and no sieve runs to 10^6
    cfg = EnsembleConfig(k=2, alpha=2e4, N=10**6)
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**5)
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    sieve, sieved = primes._sieve, []
    monkeypatch.setattr(primes, "_sieve", lambda limit: sieved.append(limit) or sieve(limit))
    assert threshold_prime(cfg) == 59999
    assert max(sieved) <= 1.6e5, sieved


def _in_thread(call, timeout: float = 60):
    """call() on a daemon thread, which must end within ``timeout`` seconds; its value or its exception."""
    result = []

    def run():
        try:
            result.append(call())
        except Exception as exc:  # noqa: BLE001 - handed to the test
            result.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the pass did not end"
    return result[0]


def test_pieces_stand_alone_in_any_order(table_1e6, monkeypatch):
    # With the gate at 10^5 and segments of 2^16 integers, as above, the pieces of every pass run last
    # first: the chunks, power sums and tail sums are those of the pass in order, bit for bit.  A piece
    # that waited for the one before it would never end, and would hold the caches' lock: a lock of the
    # test's own keeps it from stalling the tests after it.
    span, cuts = 1 << 16, (10**4, 2 * 10**5)
    _straddled(table_1e6, cuts, span)
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", span)
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**5)
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    want = _prime_sums(monkeypatch, primes.sieve_primes(10**6), cuts)
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    monkeypatch.setattr(primes, "_CACHE_LOCK", threading.Lock())
    monkeypatch.setattr(primes, "_map_pieces", lambda task, count, limit: [task(i) for i in range(count)[::-1]][::-1])
    got = _in_thread(lambda: _prime_sums(monkeypatch, primes.sieve_primes(10**6), cuts))
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(want, got))


def test_large_buckets_on_a_streamed_pass(table_1e7, monkeypatch):
    # 64 buckets at 10^7: the top one holds 63,557 primes, each of its sums one row of the piece that
    # holds its lower cut.  With the gate at 10^6 and segments of 2^16 integers, that piece sieves on over 15
    # segments; at 1 and 2 workers, and with the pieces run last first on one thread, so that one buffer goes
    # from the largest fill to smaller ones and would hand a stale entry on, the tail sums are the whole table's,
    # bit for bit, and within 1e-14 of the long-double sums
    monkeypatch.setattr(primes, "_TAIL_CACHE", {})
    want = table_1e7.tail_sums(10**4, 64)
    ld, scale = tail_sums_long_double(table_1e7.primes[1229:], want[0], 10**7)
    v = np.log(table_1e7.primes[1229:]) / np.log(10**7)
    assert np.count_nonzero(v >= want[2] + 63 * want[3]) > 3 * primes._CHUNK  # the top bucket
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", 1 << 16)
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**6)

    def reversed_pieces(task, count: int, limit: int) -> list:
        return [task(i) for i in range(count)[::-1]][::-1]

    for count, pieces in ((1, primes._map_pieces), (2, primes._map_pieces), (2, reversed_pieces)):
        monkeypatch.setattr(_threads, "workers", lambda blocks, count=count: min(count, blocks))
        monkeypatch.setattr(primes, "_map_pieces", pieces)
        monkeypatch.setattr(primes, "_TABLE_CACHE", {})
        monkeypatch.setattr(primes, "_TAIL_CACHE", {})
        got = primes.sieve_primes(10**7).tail_sums(10**4, 64)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        ok = np.abs(got[1] - ld) <= 1e-14 * scale
        assert ok.all(), np.argwhere(~ok)[:5]


def test_streamed_sums_match_the_table_past_the_real_gate(monkeypatch):
    # 2^24 + 1001: the last two segments are sieved past the head, and the one holding 2^24 also holds the
    # lower cut of the last bucket, so its piece sieves on to the end of the table
    limit = primes._PARALLEL_LIMIT + 1001
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 1 << 25)
    whole = primes.sieve_primes(limit)
    want = _prime_sums(monkeypatch, whole, (10**4,))
    monkeypatch.undo()
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    sieve, sieved = primes._sieve, []
    monkeypatch.setattr(primes, "_sieve", lambda limit: sieved.append(limit) or sieve(limit))
    table = primes.sieve_primes(limit)
    got = _prime_sums(monkeypatch, table, (10**4,))
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(want, got))
    assert table.count() == whole.count() and max(sieved) <= primes._PARALLEL_LIMIT


def test_failing_segment_ends_the_pass_under_contention(monkeypatch):
    # four workers, switching every microsecond, over the 31 pieces of 2^15 integers of a table past the
    # gate (slices of its head, then the last one, which reaches past the head and is sieved): the segment
    # that raises ends the pass with its error, and no worker thread is left alive
    monkeypatch.setattr(primes, "_SEGMENT_SIZE", 1 << 15)
    monkeypatch.setattr(primes, "_PARALLEL_LIMIT", 10**6 - 1000)
    monkeypatch.setattr(_threads, "workers", lambda blocks: min(4, blocks))
    monkeypatch.setattr(primes, "_TABLE_CACHE", {})
    table, odd_primes = primes.sieve_primes(10**6), primes._odd_primes

    def failing(first, *args):
        if first > 960_000:
            raise RuntimeError("segment failed")
        return odd_primes(first, *args)

    monkeypatch.setattr(primes, "_odd_primes", failing)
    before, interval = set(threading.enumerate()), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        error = _in_thread(lambda: table.map_chunks(np.copy))
    finally:
        sys.setswitchinterval(interval)
    assert isinstance(error, RuntimeError) and str(error) == "segment failed"
    assert set(threading.enumerate()) <= before


def test_tables_below_the_gate_stay_on_the_calling_thread(table_1e6, table_1e7, monkeypatch):
    def no_workers(*args):
        raise AssertionError("a table below the gate went to the workers")

    monkeypatch.setattr(primes, "map_blocks", no_workers)
    primes._TAIL_CACHE.clear()  # so that the tail and power passes run here
    primes._POWER_CACHE.clear()
    cfg = EnsembleConfig(k=2, alpha=1.0, N=10**6)
    FastCharfn(cfg)
    partition_function(cfg)
    _predicted_constant(2, 1.0)
    h_constant(0.5)
    primes._sieve(10**7)


def test_pieces_run_in_order_on_the_calling_thread_at_one_worker(fake_blas):
    # --threads 1 past the gate: map_blocks has one worker, the caller
    seen = []
    lift = _threads.cap(1)
    try:
        out = primes._map_pieces(lambda i: seen.append((i, threading.get_ident())) or -i, 6, primes._PARALLEL_LIMIT)
    finally:
        lift()
    assert seen == [(i, threading.get_ident()) for i in range(6)]
    assert out == [0, -1, -2, -3, -4, -5]
