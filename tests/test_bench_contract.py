"""The benchmark under perfbench/ imports fracqm names and binds some of their
parameters by name; a rename or deletion there breaks `perfbench/run.py
--trace 1` without failing any other test.  Importing `workloads` checks the
names it imports; the test checks the functions `layers` wraps and binds."""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402,F401


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
