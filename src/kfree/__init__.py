"""Numerics for smooth sums over k-free integers with bounded prime factors.

The package computes, by independent routes that are cross-checked in the
test-suite:

* finite ensembles of k-free integers whose prime factors all lie below N,
  with a complex multiplicative weight alpha^{Omega(n)}/n (``ensemble``);
* the Dickman-type density family, its delay differential equation, and the
  limiting characteristic function exp(alpha * g(lambda)) (``dickman``);
* complex-capable special functions (exponential/cosine/sine integrals,
  incomplete gamma) on ``scipy.special``, with per-call error bounds
  checked against mpmath (``specfun``);
* smooth cutoff sums by direct summation, by the exact spectral identity, and
  by the leading-order asymptotic, plus the error-regime classifier
  (``smoothsum``);
* a certified lower bound for the alpha = -1 spectral integral via midpoint
  quadrature with explicit remainder and tail bounds (``certify``);
* the remainder catalogue, integrated by one exponential-sum antiderivative
  rule, and the remainder-envelope scans used by the convergence analysis
  (``remainders``).

Command line front end: ``kfree`` (see ``kfree.cli``).
"""

__version__ = "0.1.0"

from .dickman import (
    RhoGrid,
    charfn_limit,
    charfn_limit_grid,
    h_constant,
    solve_rho,
    w_density,
    w_integral,
)
from .ensemble import (
    CharfnEvaluator,
    EnsembleConfig,
    FastCharfn,
    PartitionConstantReport,
    enumerate_ensemble,
    forbidden_alphas,
    partition_constant,
    partition_function,
)
from .errors import (
    DegenerateConfigError,
    DomainError,
    KfreeError,
    NonFiniteError,
    PoleError,
    SizeCapError,
    ToleranceError,
)
from .primes import PrimeTable, prime_count, sieve_primes
from .certify import ExampleReport, reproduce_example
from .remainders import (
    AntiderivativeCase,
    EnvelopeReport,
    antiderivative_case,
    antiderivative_names,
    bound_scan,
    limit_deviation_scan,
    main_term_J111,
)
from .smoothsum import (
    ComparisonReport,
    CutoffDescriptor,
    SpectralSum,
    asymptotic_prediction,
    builtin_cutoffs,
    comparison_tolerance,
    error_region,
    get_cutoff,
    smooth_sum_direct,
    smooth_sum_spectral,
    theorem1_ratio_scan,
)
from .specfun import (
    EULER_GAMMA,
    EvalResult,
    cosine_integral,
    entire_cosine_integral,
    exp_integral_ei,
    sine_integral,
    upper_gamma,
)

__all__ = [
    "__version__",
    "KfreeError",
    "DomainError",
    "PoleError",
    "DegenerateConfigError",
    "ToleranceError",
    "NonFiniteError",
    "SizeCapError",
    "PrimeTable",
    "sieve_primes",
    "prime_count",
    "RhoGrid",
    "h_constant",
    "solve_rho",
    "w_density",
    "w_integral",
    "charfn_limit",
    "charfn_limit_grid",
    "EnsembleConfig",
    "enumerate_ensemble",
    "partition_function",
    "partition_constant",
    "PartitionConstantReport",
    "forbidden_alphas",
    "CharfnEvaluator",
    "FastCharfn",
    "EULER_GAMMA",
    "EvalResult",
    "cosine_integral",
    "entire_cosine_integral",
    "sine_integral",
    "exp_integral_ei",
    "upper_gamma",
    "CutoffDescriptor",
    "builtin_cutoffs",
    "get_cutoff",
    "SpectralSum",
    "ComparisonReport",
    "smooth_sum_direct",
    "smooth_sum_spectral",
    "asymptotic_prediction",
    "comparison_tolerance",
    "error_region",
    "theorem1_ratio_scan",
    "ExampleReport",
    "reproduce_example",
    "AntiderivativeCase",
    "EnvelopeReport",
    "antiderivative_names",
    "antiderivative_case",
    "main_term_J111",
    "bound_scan",
    "limit_deviation_scan",
]
