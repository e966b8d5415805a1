"""Threads inside kfree: OpenBLAS held to one thread, independent blocks on kfree's own workers.

The spectral grids' GEMMs are skinny ((256, cells) @ (cells, J)): OpenBLAS
splitting one over its pool buys no wall time, and its idle threads spin
between calls.  So a hot stage runs inside :func:`one_blas_thread` and
spreads its independent blocks over :func:`workers` threads with
:func:`map_blocks` instead.  The prime layer sends the sieve's segments there
too, each with the Euler-product chunks and tail buckets it reduces on its
own, for tables with prime limits of 2^24 or more only (see :mod:`kfree.primes`).

The OpenBLAS that numpy loaded is found on first use, never at import: its
path from ``/proc/self/maps``, its thread calls through ctypes.  Without it
everything here is a no-op: BLAS is left alone and blocks run in order.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

# (get, set) thread calls: numpy's bundled 64-bit-integer OpenBLAS, then a plain one
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _Blas(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    pool: int  # the pool size at first use: OPENBLAS_NUM_THREADS / OMP_NUM_THREADS


@lru_cache(maxsize=None)
def _openblas() -> Optional[_Blas]:
    """numpy's OpenBLAS thread calls, or None when no mapped OpenBLAS has them."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return _Blas(get, put, get())
    return None


_lock = threading.Lock()
_scopes = [0, 0]  # open one_blas_thread scopes, the pool size the last one restores
_cap: Optional[int] = None  # --threads / KFREE_THREADS of the running CLI call


@contextlib.contextmanager
def one_blas_thread():
    """Run the body (or, as a decorator, each call) on one BLAS thread; the caller's pool size comes back after."""
    blas = _openblas()
    if blas is None:
        yield
        return
    with _lock:
        if _scopes[0] == 0:
            _scopes[1] = blas.get()
            blas.set(1)
        _scopes[0] += 1
    try:
        yield
    finally:
        with _lock:
            _scopes[0] -= 1
            if _scopes[0] == 0:
                blas.set(_scopes[1])


def clamp(pool: int, cap: Optional[int], cpus: int, blocks: int) -> int:
    """Workers for ``blocks`` blocks: the BLAS pool size, cut to the cap, the usable CPUs and the blocks."""
    return max(1, min(pool, cpus, blocks, pool if cap is None else cap))


def workers(blocks: int) -> int:
    """How many threads :func:`map_blocks` uses for ``blocks`` blocks; 1 without OpenBLAS."""
    blas = _openblas()
    if blas is None:
        return 1
    return clamp(blas.pool, _cap, len(os.sched_getaffinity(0)), blocks)


def cap(threads: int) -> Optional[Callable[[], None]]:
    """Cap kfree's workers and the BLAS pool at ``threads``; returns the call that lifts it, None without OpenBLAS."""
    global _cap
    blas = _openblas()
    if blas is None:
        return None
    before, pool = _cap, blas.get()
    _cap = threads
    blas.set(min(pool, threads))

    def lift():
        global _cap
        _cap = before
        blas.set(pool)

    return lift


def map_blocks(task: Callable[[int, int], None], size: int, block: int) -> None:
    """Call ``task(lo, hi)`` over [0, size) cut into blocks, which must be independent.

    One worker runs blocks of ``block`` in order on the calling thread; w > 1
    workers cut each block into pieces of ``block // w`` (the last one of a
    block shorter) so the arrays in flight add up to those of one block.  A
    task's value for an item must not depend on its piece, so that no value
    depends on w; the grids' products get that from :func:`~kfree._quad.gemm`.
    The calling thread is one of the w workers; the other w - 1 take pieces
    from the same queue, in order.  (A pool thread's arrays come from a malloc
    arena of its own that the caller cannot reuse, so the caller working keeps
    the peak memory of later stages down.)
    """
    count = workers(-(-size // block))
    step = max(1, block // count)
    pieces = []
    for start in range(0, size, block):
        end = min(start + block, size)
        pieces += [(lo, min(lo + step, end)) for lo in range(start, end, step)]
    queue = iter(pieces)
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                piece = next(queue, None)
            if piece is None:
                return
            task(*piece)

    if count == 1:
        drain()
        return
    with ThreadPoolExecutor(count - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(count - 1)]
        drain()
        for helper in helpers:
            helper.result()
