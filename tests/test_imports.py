"""Every name a pdds module imports is used in that module.

No linter runs on this package, so this stdlib check catches imports left
behind when code is deleted.  Names listed in a module's ``__all__`` count
as used (the package ``__init__`` imports in order to re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pdds"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level or nested import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations, which ast leaves as constants."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    out = set()
    for ann in annotations:
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source: str) -> dict[str, int]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    return {name: line for name, line in _imported(tree).items()
            if name not in used}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_check_sees_unused_and_used_imports():
    source = ("from typing import Optional\nfrom math import gcd, lcm\n"
              "import os.path\n__all__ = ['lcm']\n"
              "def f(x: 'Optional[int]'):\n    return gcd(x, 6)\n")
    assert _unused(source) == {"os": 3}
