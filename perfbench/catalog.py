"""Names of the benchmark's workloads, and names, units and directions of its metrics (stdlib only)."""

WORKLOADS = ("scan-grid", "scan-build", "cli-small")

# (name, unit, better) of the end-to-end metrics, measured untraced
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("primes.sieve_s", "s", "lower"),
    ("primes.calls", "count", "lower"),
    ("primes.reuse_ratio", "ratio", "higher"),
    ("primes.self_s", "s", "lower"),
    ("ensemble.fast_grid_s", "s", "lower"),
    ("ensemble.fast_grid_nodes", "count", "lower"),
    ("ensemble.fast_grid_terms", "count", "lower"),
    ("ensemble.fast_build_s", "s", "lower"),
    ("ensemble.fast_builds", "count", "lower"),
    ("ensemble.fast_build_primes", "count", "lower"),
    ("ensemble.fast_moment_bytes_computed", "B", "lower"),
    ("ensemble.partition_s", "s", "lower"),
    ("ensemble.partition_calls", "count", "lower"),
    ("ensemble.constant_s", "s", "lower"),
    ("ensemble.exact_build_s", "s", "lower"),
    ("ensemble.exact_grid_s", "s", "lower"),
    ("ensemble.exact_grid_nodes", "count", "lower"),
    ("ensemble.enumerate_s", "s", "lower"),
    ("ensemble.enumerated", "count", "lower"),
    ("ensemble.self_s", "s", "lower"),
    ("smoothsum.transform_s", "s", "lower"),
    ("smoothsum.transform_nodes", "count", "lower"),
    ("smoothsum.spectral_self_s", "s", "lower"),
    ("smoothsum.quad_nodes", "count", "lower"),
    ("smoothsum.direct_s", "s", "lower"),
    ("smoothsum.bump_quad_calls", "count", "lower"),
    ("smoothsum.bump_quad_s", "s", "lower"),
    ("smoothsum.scan_self_s", "s", "lower"),
    ("smoothsum.self_s", "s", "lower"),
    ("specfun.scalar_s", "s", "lower"),
    ("specfun.scalar_calls", "count", "lower"),
    ("specfun.vector_s", "s", "lower"),
    ("specfun.vector_points", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("dickman.solve_s", "s", "lower"),
    ("dickman.h_constant_s", "s", "lower"),
    ("dickman.limit_s", "s", "lower"),
    ("dickman.limit_points", "count", "lower"),
    ("dickman.self_s", "s", "lower"),
    ("certify.chain_s", "s", "lower"),
    ("certify.curvature_s", "s", "lower"),
    ("certify.integrand_calls", "count", "lower"),
    ("certify.self_s", "s", "lower"),
    ("remainders.scan_self_s", "s", "lower"),
    ("remainders.quad_calls", "count", "lower"),
    ("remainders.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.jobs", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# work counts: the benchmark requires each to repeat exactly from run to run
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))

LAYERS = ("primes", "ensemble", "smoothsum", "specfun", "dickman", "certify", "remainders", "cli")


