"""No library module or test module imports a name it never reads.

A syntax-tree check, stdlib only: an imported name counts as read when the
module has a ``Name`` node for it anywhere (an attribute chain such as
``np.zeros`` starts with one).  ``from __future__`` imports are exempt, and
so are the relative imports of ``__init__.py``, which re-export the
package's public names.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gridest"


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """The names a module imports and never reads, sorted; with
    ``reexports``, relative ``from`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert SRC / "estimators.py" in modules and SRC / "__init__.py" in modules
    assert TESTS / "_oracles.py" in modules and Path(__file__).resolve() in modules
    found = {
        str(p.relative_to(TESTS.parent)): unused_imports(
            p.read_text(encoding="utf-8"), reexports=p == SRC / "__init__.py")
        for p in modules
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_the_checker_sees_what_it_forbids():
    source = (
        "from __future__ import annotations\n"
        "import importlib.util\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .domain import Grid, row_keys as rk\n"
        "from . import estimators\n"
        "def f(x: Grid):\n"
        "    return np.zeros(1), importlib.util\n"
    )
    assert unused_imports(source) == ["estimators", "os", "rk"]
    assert unused_imports(source, reexports=True) == ["os"]
