"""The benchmark under perfbench/ imports fracqm names, calls them and binds
some of their parameters by name; a rename, deletion or signature change
there breaks `perfbench/run.py` without failing any other test.  Importing
`workloads` checks the names it imports; the tests check the functions
`layers` wraps and binds, and every call `workloads` makes into fracqm."""

import ast
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


def test_traced_targets_resolve(monkeypatch):
    bound = []
    real_bound = layers._bound

    def record(fn, *names):
        bound.append((fn, names))
        return real_bound(fn, *names)

    monkeypatch.setattr(layers, "_bound", record)
    targets = layers.targets()
    assert targets and all(callable(fn) for fn, _, _ in targets)
    assert bound
    for fn, names in bound:
        params = inspect.signature(fn).parameters
        missing = [n for n in names if n not in params]
        assert not missing, f"{fn.__module__}.{fn.__qualname__} has no parameter {missing}"


def _in_fracqm(obj) -> bool:
    name = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
    return isinstance(name, str) and name.split(".")[0] == "fracqm"


def test_workload_calls_bind():
    """Bind each call in workloads.py whose callee is a fracqm name, reached
    from the module's globals through attribute chains, to the callee's
    signature: its positional count and its keyword names."""
    names = vars(workloads)
    checked = 0
    for node in ast.walk(ast.parse(inspect.getsource(workloads))):
        if not isinstance(node, ast.Call):
            continue
        chain, root = [], node.func
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if not (isinstance(root, ast.Name) and _in_fracqm(names.get(root.id))):
            continue
        where = f"workloads.py:{node.lineno} {ast.unparse(node.func)}"
        fn = names[root.id]
        for attr in chain:
            fn = getattr(fn, attr, None)
        assert callable(fn), f"{where} does not resolve to a callable"
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
        checked += 1
    assert checked
