"""The package never loads scipy.

Importing fracqm, the path sampler and the CLI loads numpy alone (without
numpy.polynomial, which the Gauss-Legendre sums load on first use), and
running all eight shipped configs leaves no scipy module in sys.modules:
the stable density and CDF are fixed Gauss-Legendre sums, and
`numerics.adaptive_quadrature` is a double-exponential rule, both in numpy.
The check runs in a fresh interpreter, since an import cannot be undone
within one.  A syntax-tree check keeps every `src/fracqm` module from
naming scipy at all.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPERIMENTS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))

_PROBE = """
import json, pathlib, sys
import fracqm, fracqm.cli, fracqm.pimc

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {{"import": loaded()}}
for name in {experiments!r}:
    text = (pathlib.Path({configs!r}) / (name + ".cfg")).read_text()
    fracqm.cli.run_experiment(fracqm.cli.validate_config(fracqm.cli.parse_flat(text)))
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
    code = _PROBE.format(experiments=experiments, configs=str(ROOT / "configs"))
    return json.loads(_last_line_fresh(code))


def test_cli_import_leaves_out_numpy_polynomial():
    # numerics.gauss_legendre imports numpy.polynomial on first use
    code = "import sys, fracqm.cli; print('numpy.polynomial' in sys.modules)"
    assert _last_line_fresh(code) == "False"


def test_no_experiment_loads_scipy():
    assert len(EXPERIMENTS) == 8, EXPERIMENTS
    seen = _loaded_after(EXPERIMENTS)
    for stage in ["import", *EXPERIMENTS]:
        assert seen[stage] == [], f"{stage} loaded {seen[stage]}"


def _scipy_users():
    """(module, line) pairs that import scipy or use the name scipy."""
    users = set()
    for path in sorted((ROOT / "src" / "fracqm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                users.add((path.stem, node.lineno))
    return users


def test_no_module_names_scipy():
    assert _scipy_users() == set()
