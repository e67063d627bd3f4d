"""Every name a module imports is read somewhere in that module.

The scan parses each module of the package (``__init__.py``, which imports
to re-export, aside) and each test module, and compares the names its import
statements bind with the names it reads. An attribute read such as
``np.zeros`` reads ``np``; imports inside functions count for the module.
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
