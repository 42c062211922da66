"""Every name a fracqm module exports in ``__all__`` has a caller in code.

A use is a load of the name, or an attribute of that name, in
``src/fracqm`` outside the name's own ``def`` / ``class`` body and outside
the ``__all__`` lists, or a reference in the benchmark's ``perfbench/*.py``.
Tests do not count: a function only tests call belongs in the tests.  The
check reads the syntax trees, so a name that only appears in a string or a
comment is unused.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracqm"


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _used_names(node, skip=None):
    """Names loaded, or taken as attributes, under node, leaving out the
    ``__all__`` lists and the body of any def or class named skip."""
    used = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and skip and n.name == skip:
            continue
        if isinstance(n, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets
        ):
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return used


def _unused_exports():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _used_names(ast.parse(path.read_text()))
    unused = []
    for path, tree in trees.items():
        for name in _exports(tree):
            if name in bench:
                continue
            if not any(name in _used_names(t, skip=name) for t in trees.values()):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_export_has_a_caller_in_code():
    unused = _unused_exports()
    assert not unused, f"exported but used only by tests (or not at all): {unused}"
