"""The package fails in two ways, checked on the syntax trees and at the
float edges of every shipped config.

`errors.py` defines ConfigurationError (bad input, a ValueError),
NumericalError (a failed computation, a RuntimeError) and its
QuadraturePointError, and nothing else.  Every `raise` of a new exception in
`src/fracqm` names one of them, with one exception: the `__main__` block
raises SystemExit with the CLI's exit status.
"""

import ast
import pathlib
import re
import warnings

import pytest

from fracqm.cli import _EXPERIMENTS, parse_flat, run_experiment, validate_config
from fracqm.errors import ConfigurationError, NumericalError

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


# Every shipped config with one float key pushed to a float edge: the run must
# end as a pass, a report with failed named rows, ConfigurationError or
# NumericalError, with no RuntimeWarning and nothing printed (LAPACK reports
# bad arguments on stderr).  The keys are every schema key with a float
# default, plus the derived-by-default nu, mu and t_split.
CONFIGS = SRC.parents[1] / "configs"
EDGES = (1e-300, 1e300, -1e300, 5e-324)
# the cases mended where the quantity is formed: each message names the key
# (free_partition_function calls the system size omega)
MENDED = {
    ("statmech", "length", 1e-300), ("statmech", "length", 5e-324),
    ("statmech", "length", 1e300), ("statmech", "omega_size", 5e-324),
    *(("evolve", k, v) for k, v in [("length", 5e-324), ("length", 1e-300),
                                    ("length", 1e300), ("hbar", 1e300), ("x0", 1e300),
                                    ("x0", -1e300), ("sigma", 1e-300), ("sigma", 5e-324)]),
    *(("packet", k, v) for k, v in [("l", 1e-300), ("l", 1e300), ("l", 5e-324),
                                    ("p0", 1e300), ("p0", 5e-324), ("hbar", 1e-300),
                                    ("hbar", 1e300), ("hbar", 5e-324)]),
    *(("uncertainty", k, v) for k, v in [("mu", 1e-300), ("mu", 5e-324), ("l", 1e300),
                                         ("p0", 1e300), ("hbar", 1e-300), ("hbar", 5e-324)]),
    *(("scaling", k, v) for k, v in [("d_alpha", 1e-300), ("d_alpha", 1e300),
                                     ("sigma0", 1e-300), ("sigma0", 1e300),
                                     ("sigma0", 5e-324), ("mu", 1e-300), ("mu", 5e-324)]),
}
NAMED_AS = {"omega_size": "omega"}


def _edge_cases():
    for experiment, (_, schema) in _EXPERIMENTS.items():
        for key, (_, default) in schema.items():
            if isinstance(default, float) or key in ("nu", "mu", "t_split"):
                for value in EDGES:
                    yield pytest.param(experiment, key, value, id=f"{experiment}-{key}-{value!r}")


@pytest.mark.parametrize("experiment, key, value", _edge_cases())
def test_float_edge_ends_in_the_contract(experiment, key, value, capfd):
    raw = parse_flat((CONFIGS / f"{experiment}.cfg").read_text())
    raw[key] = repr(value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run_experiment(validate_config(raw))
            error = None
        except (ConfigurationError, NumericalError) as exc:
            error = str(exc)
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capfd.readouterr() == ("", "")
    if (experiment, key, value) in MENDED:
        assert error is not None and re.search(rf"\b{NAMED_AS.get(key, key)}\b", error), error


def test_edge_lists_name_swept_cases():
    swept = {tuple(p.values) for p in _edge_cases()}
    assert len(swept) == 208
    assert MENDED <= swept
