"""Source hygiene of the package, read with the stdlib ``ast`` only.

Two rules keep deletions from leaving dead code behind:

* a module of ``src/orenaka`` reads every name it imports (the
  re-exports of ``__init__`` and ``from __future__`` are exempt);
* every module-level ``_private`` function is referenced by some module
  of ``src/orenaka``.

A third keeps Fractions at the public edge: no module of
``src/orenaka`` calls ``.basis()`` or ``Tensor.from_vec``, whose
Fraction rows are for callers outside the package; inside it a
subspace becomes tensors through ``basis_tensors``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orenaka"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by import, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names, and the
    names inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def _fraction_edge_calls(tree: ast.Module) -> list[int]:
    """The lines that call ``.basis()`` or ``Tensor.from_vec``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            tensor = isinstance(owner, ast.Name) and owner.id == "Tensor"
            if attr == "basis" or (attr == "from_vec" and tensor):
                out.append(node.lineno)
    return sorted(out)


def test_modules_read_every_import():
    unread = [
        f"{name}:{line} imports {imported} and never reads it"
        for name, tree in MODULES.items()
        if name != "__init__.py"
        for imported, line in _imported(tree).items()
        if imported not in _read(tree)
    ]
    assert unread == []


def test_private_functions_are_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unused = [
        f"{name}:{node.lineno} defines {node.name}, which no module references"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unused == []


def test_no_module_calls_the_fraction_basis():
    calls = [
        f"{name}:{line} calls .basis() or Tensor.from_vec"
        for name, tree in MODULES.items()
        for line in _fraction_edge_calls(tree)
    ]
    assert calls == []


def test_rules_catch_dead_code():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from math import gcd, lcm\n"
        "def _dead():\n"
        "    return lcm(2, 3)\n"
        "def f(x: 'Path') -> int:\n"
        "    return os.sep\n"
    )
    assert {n for n in _imported(tree) if n not in _read(tree)} == {"gcd"}
    assert "_dead" not in _read(tree)
    assert "Path" in _read(tree)


def test_rule_catches_fraction_basis_calls():
    tree = ast.parse(
        "def basis(self):\n"
        "    return []\n"
        "rows = space.basis()\n"
        "t = Tensor.from_vec(rows[0], 2, 2)\n"
        "ts = space.basis_tensors(2, 2)\n"
        "basis = space.basis\n"
    )
    assert _fraction_edge_calls(tree) == [3, 4]
