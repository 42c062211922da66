"""scipy is imported only where a quadrature runs.

Importing fracqm, the path sampler and the CLI loads numpy alone (without
numpy.polynomial, which the Gauss-Legendre sums load on first use), and so
do the shipped configs whose experiments never integrate adaptively: the
stable density and CDF, and the density's unit-mass check, are fixed
Gauss-Legendre sums in numpy.  The check
runs in a fresh interpreter, since an import cannot be undone within one.

QUADPACK has one entry, `numerics.adaptive_quadrature`.  A syntax-tree
check keeps every other function off `scipy.integrate`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCIPY_PARTS = ("scipy.integrate", "scipy.linalg")

_PROBE = """
import json, pathlib, sys
import fracqm, fracqm.cli, fracqm.pimc

def loaded():
    return sorted(m for m in {parts!r} if m in sys.modules)

seen = {{"import": loaded()}}
for name in {experiments!r}:
    text = (pathlib.Path({configs!r}) / (name + ".cfg")).read_text()
    fracqm.cli.run_experiment(fracqm.cli.validate_config(text))
    seen[name] = loaded()
print(json.dumps(seen))
"""


def _last_line_fresh(code):
    """The last line a fresh interpreter prints running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return out.stdout.strip().splitlines()[-1]


def _loaded_after(experiments):
    code = _PROBE.format(parts=SCIPY_PARTS, experiments=experiments,
                         configs=str(ROOT / "configs"))
    return json.loads(_last_line_fresh(code))


def test_cli_import_leaves_out_numpy_polynomial():
    # numerics.gauss_legendre imports numpy.polynomial on first use
    code = "import sys, fracqm.cli; print('numpy.polynomial' in sys.modules)"
    assert _last_line_fresh(code) == "False"


def test_scipy_loaded_only_by_quadrature():
    lazy = ["scaling", "evolve", "kernel-check", "uncertainty", "pimc", "density"]
    seen = _loaded_after(lazy + ["statmech"])
    for stage in ["import", *lazy]:
        assert seen[stage] == [], f"{stage} loaded {seen[stage]}"
    # the statmech experiment integrates, so the lazy import does fire
    assert "scipy.integrate" in seen["statmech"]


def _dotted_names(node):
    if isinstance(node, ast.ImportFrom) and node.module:
        return [f"{node.module}.{a.name}" for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def _scipy_integrate_users():
    """(module, top-level def) pairs whose bodies name scipy.integrate."""
    users = set()
    for path in sorted((ROOT / "src" / "fracqm").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(name.split(".")[:2] == ["scipy", "integrate"]
                   for node in ast.walk(top) for name in _dotted_names(node)):
                users.add((path.stem, getattr(top, "name", None)))
    return users


def test_scipy_integrate_has_one_entry_per_integrand_kind():
    assert _scipy_integrate_users() == {("numerics", "adaptive_quadrature")}
