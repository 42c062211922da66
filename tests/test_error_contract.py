"""The package fails in two ways, checked on the syntax trees.

`errors.py` defines ConfigurationError (bad input, a ValueError),
NumericalError (a failed computation, a RuntimeError) and its
QuadraturePointError, and nothing else.  Every `raise` of a new exception in
`src/fracqm` names one of them, with one exception: the `__main__` block
raises SystemExit with the CLI's exit status.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fracqm"
KEPT = {"ConfigurationError", "NumericalError", "QuadraturePointError"}
ALLOWED = {("cli", "<module>", "SystemExit")}


def _raises(tree, scope="<module>"):
    """(enclosing def's dotted name, exception name) of each raise of a new
    exception; a bare `raise` re-raises and is left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            yield from _raises(node, inner)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield scope, exc.attr if isinstance(exc, ast.Attribute) else exc.id
        yield from _raises(node, scope)


def test_errors_module_defines_the_two_kinds():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {n.name for n in tree.body if isinstance(n, ast.ClassDef)} == KEPT


def test_every_raise_names_a_kept_class():
    found = {
        (path.stem, scope, name)
        for path in SRC.glob("*.py")
        for scope, name in _raises(ast.parse(path.read_text()))
    }
    stray = sorted(r for r in found - ALLOWED if r[2] not in KEPT)
    assert not stray, f"raises outside the two failure kinds: {stray}"
    assert ALLOWED <= found, f"stale allowance: {sorted(ALLOWED - found)}"
