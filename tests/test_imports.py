"""Every name a module imports, and every private name a package module
defines, is read somewhere in that module.

The scan parses each module of the package (``__init__.py``, which imports
to re-export, aside) and each test module, and compares the names its import
statements bind with the names it reads. An attribute read such as
``np.zeros`` reads ``np``; imports inside functions count for the module.
A second scan takes each package module's top-level private names (an
``_x`` def, class or assignment; dunders aside) and fails on one the module
itself never reads: code left behind when its last caller was deleted.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([p for p in (ROOT / "src" / "signedattack").glob("*.py")
                  if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unread_imports(source):
    """Names bound by the import statements of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


PACKAGE = sorted((ROOT / "src" / "signedattack").glob("*.py"))


def unread_private_names(source):
    """Top-level ``_x`` defs, classes and assignment targets of ``source`` that it never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_the_scan_sees_both_trees():
    names = {p.name for p in MODULES}
    assert {"attacks.py", "pole.py", "test_pole.py", "synthgraphs.py"} <= names
    assert "__init__.py" not in names


def test_unread_imports_finds_plain_from_and_aliased_names():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "import numpy as np\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return np.zeros(b)\n")
    assert unread_imports(source) == ["d", "g", "json", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_unread_private_names_finds_defs_classes_and_constants():
    source = ("__all__ = []\n_USED, _LEFT = 1, 2\n_TABLE: dict = {}\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    _local = 3\n    return _local\n"
              "class _Gone:\n    _attr = 0\n"
              "def public():\n    return _helper()\n")
    assert unread_private_names(source) == ["_Gone", "_LEFT", "_TABLE", "_orphan"]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []
