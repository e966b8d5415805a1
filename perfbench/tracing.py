"""Spans around the public kfree entry points, and the per-layer metrics made from them.

A span is recorded for each call of a wrapped entry point: its name, start,
end, the index of the enclosing span (-1 at top level) and, for some names,
a tuple of work counts.  Spans stay in memory; ``Tracer.spans`` is written to a sidecar
file by the caller once the pass is over.

Functions are wrapped by rebinding every module attribute of the ``kfree``
package that refers to them, because ``from .x import y`` copies the name
into each importing module.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

import numpy as np

import kfree
import kfree.cli  # noqa: F401  (rebinding must see every kfree module)

from catalog import LAYERS

# span name -> (module, functions)
FUNCTIONS = {
    "primes.sieve": ("kfree.primes", ("sieve_primes",)),
    "ensemble.partition": ("kfree.ensemble", ("partition_function",)),
    "ensemble.constant": ("kfree.ensemble", ("partition_constant",)),
    "ensemble.enumerate": ("kfree.ensemble", ("enumerate_ensemble",)),
    "smoothsum.spectral": ("kfree.smoothsum", ("smooth_sum_spectral",)),
    "smoothsum.direct": ("kfree.smoothsum", ("smooth_sum_direct",)),
    "smoothsum.bump_quad": ("kfree.smoothsum", ("bump_transform",)),
    "smoothsum.scan": ("kfree.smoothsum", ("theorem1_ratio_scan",)),
    "specfun.scalar": (
        "kfree.specfun",
        (
            "cosine_integral",
            "sine_integral",
            "entire_cosine_integral",
            "exp_integral_ei",
            "exp_integral_e1",
            "upper_gamma",
        ),
    ),
    "specfun.vector": ("kfree.specfun", ("ci_si_values", "cin_values")),
    "dickman.solve": ("kfree.dickman", ("solve_rho",)),
    "dickman.h_constant": ("kfree.dickman", ("h_constant",)),
    "dickman.limit": ("kfree.dickman", ("charfn_limit", "charfn_limit_grid")),
    "certify.chain": ("kfree.certify", ("reproduce_example",)),
    "certify.curvature": ("kfree.certify", ("second_derivative_max",)),
    "certify.integrand": ("kfree.certify", ("integrand_F",)),
    "remainders.scan": ("kfree.remainders", ("limit_deviation_scan", "bound_scan")),
    "remainders.quad": ("kfree._quad", ("complex_quad",)),
    "cli.run": ("kfree.cli", ("run",)),
}

METHODS = {
    "ensemble.fast_build": (kfree.FastCharfn, "__init__"),
    "ensemble.fast_grid": (kfree.FastCharfn, "grid"),
    "ensemble.exact_build": (kfree.CharfnEvaluator, "__init__"),
    "ensemble.exact_grid": (kfree.CharfnEvaluator, "grid"),
    "smoothsum.transform": (kfree.CutoffDescriptor, "transform_grid"),
}


def _degree_terms(k: int) -> int:
    """Coefficients per bucket in FastCharfn: the log series through w^4 in X^(k-1)."""
    return 4 * (k - 1) + 1


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self.active = False
        self._stack: list[int] = []
        self._fast_shape = weakref.WeakKeyDictionary()  # FastCharfn -> (k, buckets)

    def _wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, ()]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS and METHODS (inactive until ``active`` is set)."""
        modules = [m for key, m in sys.modules.items() if key == "kfree" or key.startswith("kfree.")]
        for name, (module, attrs) in FUNCTIONS.items():
            for attr in attrs:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original, self._function_work(attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        for name, (cls, attr) in METHODS.items():
            original = getattr(cls, attr)
            setattr(cls, attr, self._wrap(name, original, self._method_work(name, original)))

    @staticmethod
    def _function_work(attr):
        if attr == "sieve_primes":  # the limit, to tell reuse of an already-seen one
            return lambda args, kwargs, out: (int(args[0] if args else kwargs["limit"]),)
        if attr == "enumerate_ensemble":
            return lambda args, kwargs, out: (len(out),)
        if attr in ("ci_si_values", "cin_values"):
            return lambda args, kwargs, out: (int(np.size(args[0] if args else kwargs["x"])),)
        if attr == "charfn_limit":
            return lambda args, kwargs, out: (1,)
        if attr == "charfn_limit_grid":
            return lambda args, kwargs, out: (int(np.size(args[1] if len(args) > 1 else kwargs["lam"])),)
        return None

    def _method_work(self, name, original):
        signature = inspect.signature(original)

        def nodes(args, kwargs, out):
            return (int(np.size(signature.bind(*args, **kwargs).arguments["lams"])),)

        if name == "ensemble.fast_build":

            def build(args, kwargs, out):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                obj = bound.arguments["self"]
                k, buckets = bound.arguments["cfg"].k, int(bound.arguments["buckets"])
                self._fast_shape[obj] = (k, buckets)
                tail_primes = len(obj.table.primes) - obj.split
                moment_bytes = _degree_terms(k) * 4 * buckets * np.dtype(complex).itemsize
                return (tail_primes, moment_bytes)

            return build
        if name == "ensemble.fast_grid":

            def grid(args, kwargs, out):
                (count,) = nodes(args, kwargs, out)
                k, buckets = self._fast_shape[args[0]]
                return (count, count * buckets * _degree_terms(k))

            return grid
        if name in ("ensemble.exact_grid", "smoothsum.transform"):
            return nodes
        return None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: every PER_LAYER name but trace.wall_s and trace.overhead_s."""
    n = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own = [duration[i] - child_time[i] for i in range(n)]

    def nested_in_same(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    outer = {}  # name -> time of spans not nested inside a span of the same name
    calls = {}
    work = {}  # name -> elementwise sum of the spans' work tuples
    for i, (name, _, _, _, w) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if not nested_in_same(i):
            outer[name] = outer.get(name, 0.0) + duration[i]
        if w:
            work[name] = tuple(a + b for a, b in zip(work.get(name, (0,) * len(w)), w))

    def self_of(prefix):
        return sum((own[i] for i in range(n) if spans[i][0] == prefix or spans[i][0].startswith(prefix + ".")), 0.0)

    seen = set()
    reused = 0
    for name, _, _, _, w in spans:
        if name == "primes.sieve":
            reused += w in seen
            seen.add(w)
    quad_nodes = sum(
        spans[i][4][0]
        for i in range(n)
        if spans[i][0] in ("ensemble.fast_grid", "ensemble.exact_grid")
        and spans[i][3] >= 0
        and spans[spans[i][3]][0] == "smoothsum.spectral"
    )
    fast_grid = work.get("ensemble.fast_grid", (0, 0))
    fast_build = work.get("ensemble.fast_build", (0, 0))

    def count(name):
        return work.get(name, (0,))[0]

    m = {
        "primes.sieve_s": outer.get("primes.sieve", 0.0),
        "primes.calls": calls.get("primes.sieve", 0),
        "primes.reuse_ratio": reused / calls["primes.sieve"] if calls.get("primes.sieve") else 0.0,
        "ensemble.fast_grid_s": outer.get("ensemble.fast_grid", 0.0),
        "ensemble.fast_grid_nodes": fast_grid[0],
        "ensemble.fast_grid_terms": fast_grid[1],
        "ensemble.fast_build_s": outer.get("ensemble.fast_build", 0.0),
        "ensemble.fast_builds": calls.get("ensemble.fast_build", 0),
        "ensemble.fast_build_primes": fast_build[0],
        "ensemble.fast_moment_bytes_computed": fast_build[1],
        "ensemble.partition_s": outer.get("ensemble.partition", 0.0),
        "ensemble.partition_calls": calls.get("ensemble.partition", 0),
        "ensemble.constant_s": outer.get("ensemble.constant", 0.0),
        "ensemble.exact_build_s": outer.get("ensemble.exact_build", 0.0),
        "ensemble.exact_grid_s": outer.get("ensemble.exact_grid", 0.0),
        "ensemble.exact_grid_nodes": count("ensemble.exact_grid"),
        "ensemble.enumerate_s": outer.get("ensemble.enumerate", 0.0),
        "ensemble.enumerated": count("ensemble.enumerate"),
        "smoothsum.transform_s": outer.get("smoothsum.transform", 0.0),
        "smoothsum.transform_nodes": count("smoothsum.transform"),
        "smoothsum.spectral_self_s": self_of("smoothsum.spectral"),
        "smoothsum.quad_nodes": quad_nodes,
        "smoothsum.direct_s": outer.get("smoothsum.direct", 0.0),
        "smoothsum.bump_quad_calls": calls.get("smoothsum.bump_quad", 0),
        "smoothsum.bump_quad_s": outer.get("smoothsum.bump_quad", 0.0),
        "smoothsum.scan_self_s": self_of("smoothsum.scan"),
        "specfun.scalar_s": outer.get("specfun.scalar", 0.0),
        "specfun.scalar_calls": calls.get("specfun.scalar", 0),
        "specfun.vector_s": outer.get("specfun.vector", 0.0),
        "specfun.vector_points": count("specfun.vector"),
        "dickman.solve_s": outer.get("dickman.solve", 0.0),
        "dickman.h_constant_s": outer.get("dickman.h_constant", 0.0),
        "dickman.limit_s": outer.get("dickman.limit", 0.0),
        "dickman.limit_points": count("dickman.limit"),
        "certify.chain_s": outer.get("certify.chain", 0.0),
        "certify.curvature_s": outer.get("certify.curvature", 0.0),
        "certify.integrand_calls": calls.get("certify.integrand", 0),
        "remainders.scan_self_s": self_of("remainders.scan"),
        "remainders.quad_calls": calls.get("remainders.quad", 0),
        "cli.jobs": calls.get("cli.run", 0),
        "trace.spans": n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(layer)
    return m
