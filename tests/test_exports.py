"""Every function or class that ``kfree`` exports is run by the library.

An AST scan of ``src/kfree`` collects the names each module loads, leaving
out loads inside the name's own definition; import statements and the
``__all__`` strings are not loads, so re-exporting a name is not a use.  A
name may instead be wrapped by perfbench's tracer, which is read in a fresh
interpreter with ``src`` and ``perfbench`` on ``sys.path`` as in
``tests/test_tracing.py``.  A name used only by the tests belongs in
``tests/oracles.py``.
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
