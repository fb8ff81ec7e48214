"""Every name a pdds module or test file imports is used in that file,
every private module-level function or class is used somewhere in the
package, and every public one is used there too or is documented API.

No linter runs on this package, so these stdlib checks catch imports,
helpers and functions left behind when code is deleted.  Names listed in a
module's ``__all__`` count as used (the package ``__init__`` imports in
order to re-export).  Tests do not count as callers of a package function.
"""

import ast
import re
from pathlib import Path
from typing import Sequence

import pytest

import pdds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdds"
TESTS = ROOT / "tests"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_check_sees_unused_and_used_imports():
    source = ("from typing import Optional\nfrom math import gcd, lcm\n"
              "import os.path\n__all__ = ['lcm']\n"
              "def f(x: 'Optional[int]'):\n    return gcd(x, 6)\n")
    assert _unused(source) == {"os": 3}


def _without_caller(sources: dict[str, str], private: bool) -> list[str]:
    """Module-level functions and classes, private (``_name``) or public,
    that no code refers to outside their own definition, as
    ``module.name``."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not node.name.startswith("__")):
                continue
            name = node.name
            used = any(
                (isinstance(n, ast.Name) and n.id == name)
                or (isinstance(n, ast.Attribute) and n.attr == name)
                for other in trees.values() for top in other.body if top is not node
                for n in ast.walk(top))
            if not used:
                out.append(f"{mod}.{name}")
    return out


def _public_without_caller(sources: dict[str, str], exported: Sequence[str],
                           readme: str) -> list[str]:
    """Public module-level functions and classes with no caller in the
    sources that are not documented API: exported (``exported``, the
    package ``__all__``) and named in ``readme``."""
    return [qual for qual in _without_caller(sources, private=False)
            if not (qual.split(".")[1] in exported
                    and re.search(rf"\b{qual.split('.')[1]}\b", readme))]


def test_every_private_helper_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _without_caller(sources, private=True) == []


def test_check_sees_private_helpers_without_callers():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _self_only(n):\n    return _self_only(n - 1) if n else 0\n"
              "class _Orphan:\n    pass\n"
              "def __dunder__():\n    pass\n"
              "def public():\n    return _used()\n"),
        "b": "import a\nx = a._from_elsewhere\n",
        "c": "def _from_elsewhere():\n    pass\n",
    }
    assert _without_caller(sources, private=True) == ["a._self_only", "a._Orphan"]


def test_every_public_function_has_a_caller_or_is_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _public_without_caller(sources, pdds.__all__, readme) == []


def test_check_sees_public_names_without_callers_or_docs():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def orphan():\n    return used()\n"
              "def documented():\n    pass\n"
              "def exported_only():\n    pass\n"
              "def named_only():\n    pass\n"
              "class Record:\n    pass\n"
              "def _private():\n    pass\n"),
        "b": "import a\nx = a.Record\n",
    }
    readme = "Call `documented()` or `named_only`; `exported_only_not` is another name."
    exported = ["documented", "exported_only"]
    assert _public_without_caller(sources, exported, readme) == [
        "a.orphan", "a.exported_only", "a.named_only"]


def _private_imports(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private (``_name``, not dunder) name a
    package module imports from another, or reads off one it imported
    whole; the package is ``pdds``, imported relatively or absolutely."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    out = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        modules = set()         # names bound to a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "pdds"):
                for alias in node.names:
                    if node.module in (None, "pdds") and alias.name in sources:
                        modules.add(alias.asname or alias.name)
                    elif private(alias.name):
                        out.append(f"{mod}: {alias.name}")
            elif isinstance(node, ast.Import):
                modules |= {a.asname for a in node.names
                            if a.asname and a.name.split(".")[0] == "pdds"}
        out += [f"{mod}: {n.attr}" for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and private(n.attr)]
    return out


def test_no_module_imports_another_modules_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _private_imports(sources) == []


def test_check_sees_private_names_taken_from_other_modules():
    sources = {
        "a": "def _helper():\n    pass\ndef public():\n    return _helper()\n",
        "b": ("from __future__ import annotations\n"
              "from . import __version__, a\nfrom .a import _helper, public\n"
              "x = a._helper, a.public, a.__name__\n"),
        "c": ("import pdds.a as m\nfrom pdds.a import _helper as h\n"
              "from pdds import a as other\ny = m._helper, other._helper\n"),
        "d": "from collections import _private\nimport os\nz = os._exit\n",
    }
    assert _private_imports(sources) == ["b: _helper", "b: _helper", "c: _helper",
                                         "c: _helper", "c: _helper"]
