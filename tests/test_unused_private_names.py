"""Every module-level private name of the library is read by the library.

A syntax-tree check, stdlib only.  A private name is one a module binds at
its top level, by ``def``, ``class`` or assignment, that starts with one
underscore (dunders such as ``__all__`` are exempt).  It counts as read when
some library module loads it: a ``Name`` node, or the attribute of an
``Attribute`` node (``estimators._spread_order``, ``self._table``).  A helper
that only the tests still call belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridest"


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _loaded(tree: ast.Module) -> set[str]:
    """The names and attribute names a module loads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unused_private_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module name, the private names it binds and no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_loaded, trees.values()))
    found = {name: sorted(_defined(tree) - read) for name, tree in trees.items()}
    return {name: names for name, names in found.items() if names}


def test_every_private_name_is_read_by_the_library():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "families.py" in modules and SRC / "estimators.py" in modules
    sources = {p.name: p.read_text(encoding="utf-8") for p in modules}
    assert sum(len(_defined(ast.parse(s))) for s in sources.values()) >= 40
    assert unused_private_names(sources) == {}


def test_the_checker_sees_what_it_forbids():
    sources = {
        "a.py": (
            "import functools\n"
            "__all__ = ['f']\n"
            "_CAP: int = 4\n"
            "_LEFT, _RIGHT = 1, 2\n"
            "class _Stub:\n"
            "    pass\n"
            "@functools.cache\n"
            "def _row_bound(diff):\n"
            "    return _RIGHT\n"
            "def _used():\n"
            "    return _CAP\n"
            "def f():\n"
            "    _local = 1\n"
            "    return _local\n"
        ),
        "b.py": "from . import a\ndef g():\n    return a._used()\n",
    }
    assert unused_private_names(sources) == {"a.py": ["_LEFT", "_Stub", "_row_bound"]}
