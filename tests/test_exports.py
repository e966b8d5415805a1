"""Every function or class that ``kfree`` exports is run by the library.

An AST scan of ``src/kfree`` collects the names each module loads, leaving
out loads inside the name's own definition; import statements and the
``__all__`` strings are not loads, so re-exporting a name is not a use.  A
name may instead be wrapped by perfbench's tracer, which is read in a fresh
interpreter with ``src`` and ``perfbench`` on ``sys.path`` as in
``tests/test_tracing.py``.  A name used only by the tests belongs in
``tests/oracles.py``.

The parameter names of every exported function and class, and of the public
methods of the classes, are pinned too, so that a new keyword (a method knob)
fails here as a new export does.
"""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import kfree

ROOT = Path(__file__).resolve().parents[1]

# exported for the remainder bound of the asymptotic route, which will call them
AWAITING_CALLER = {"main_term_J111", "antiderivative_case", "antiderivative_names"}

# parameter names of each exported callable (a class: its constructor) and public method, in order
SIGNATURES = {
    "PrimeTable": "limit primes",
    "PrimeTable.count": "",
    "PrimeTable.count_below": "x",
    "PrimeTable.map_chunks": "fn start stop",
    "PrimeTable.power_sums": "split",
    "PrimeTable.tail_sums": "split buckets",
    "sieve_primes": "limit",
    "prime_count": "limit",
    "RhoGrid": "alpha step u_max values a0",
    "h_constant": "alpha",
    "solve_rho": "alpha u_max step",
    "w_density": "grid u",
    "w_integral": "grid",
    "charfn_limit": "alpha lam",
    "charfn_limit_grid": "alpha lam",
    "EnsembleConfig": "k alpha N",
    "enumerate_ensemble": "cfg cap",
    "partition_function": "cfg",
    "partition_constant": "k alpha n_values",
    "PartitionConstantReport": "k alpha n_values ratios value est_error predicted candidates supported",
    "forbidden_alphas": "k prime_limit",
    "CharfnEvaluator": "cfg",
    "CharfnEvaluator.grid": "lams",
    "CharfnEvaluator.truncation_bound": "lam_max",
    "FastCharfn": "cfg buckets",
    "FastCharfn.truncation_bound": "lam_max",
    "FastCharfn.grid": "lams block",
    "EvalResult": "value est_abs_error",
    "cosine_integral": "lam",
    "entire_cosine_integral": "lam",
    "sine_integral": "lam",
    "exp_integral_ei": "z",
    "upper_gamma": "a z",
    "CutoffDescriptor": "name evaluate transform eta decay_constant support tail_integral jumps",
    "CutoffDescriptor.transform_grid": "lams",
    "CutoffDescriptor.strip_bound": "y",
    "builtin_cutoffs": "",
    "get_cutoff": "name",
    "SpectralSum": "value R quadrature_error tail_bound panel_width rho",
    "ComparisonReport": "k alpha N cutoff R constant direct spectral asymptotic epsilon_rate ratios",
    "smooth_sum_direct": "cfg f",
    "smooth_sum_spectral": "cfg f R tol",
    "asymptotic_prediction": "cfg f R constant",
    "comparison_tolerance": "cfg direct spectral",
    "error_region": "tau eta delta",
    "theorem1_ratio_scan": "k alpha n_values f R_numerator",
    "ExampleReport": "r M h midpoint_sum second_derivative_max curvature_step_bound measured_error_envelope "
    "half_curvature_bound tail lower_bound margin threshold passed",
    "reproduce_example": "r M",
    "AntiderivativeCase": "name indices eps closed_form integrand note",
    "EnvelopeReport": "label rows fit alternatives term",
    "EnvelopeReport.alternative": "model",
    "antiderivative_names": "",
    "antiderivative_case": "indices eps",
    "main_term_J111": "cfg lam d_star",
    "bound_scan": "term cfgs lam_values",
    "limit_deviation_scan": "k alpha lam_values n_values",
}


def _library_loads() -> set:
    """Names loaded (as a name or an attribute) anywhere in src/kfree outside their own def."""
    loads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            loads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted((ROOT / "src" / "kfree").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return loads


def _traced_names() -> set:
    """Functions and classes whose entry points perfbench's tracer wraps by name."""
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracing; "
        "names = [a for _, attrs in tracing.FUNCTIONS.values() for a in attrs]; "
        "names += [cls.__name__ for cls, _ in tracing.METHODS.values()]; print(json.dumps(names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_every_exported_function_and_class_has_a_caller():
    exported = {
        name
        for name in kfree.__all__
        if inspect.isfunction(getattr(kfree, name)) or inspect.isclass(getattr(kfree, name))
    }
    assert AWAITING_CALLER <= exported
    used = _library_loads() | _traced_names()
    assert sorted(exported - used - AWAITING_CALLER) == []


def _public_signatures() -> dict:
    """Parameter names, space-separated, of each exported function, class and public method."""
    out = {}
    for name in kfree.__all__:
        obj = getattr(kfree, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
            out[name] = " ".join(inspect.signature(obj).parameters)
        if inspect.isclass(obj) and name in out:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out[f"{name}.{attr}"] = " ".join(p for p in inspect.signature(member).parameters if p != "self")
    return out


def test_public_parameters_are_pinned():
    # a parameter added, renamed or removed anywhere in the public API shows here by name
    assert _public_signatures() == SIGNATURES


def test_primes_imports_no_scipy():
    # P(2..5) are literals, so the prime module stands on numpy alone
    tree = ast.parse((ROOT / "src" / "kfree" / "primes.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
