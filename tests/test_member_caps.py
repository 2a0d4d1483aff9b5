"""Only ``families.check_member_matrix`` reads the member caps.

A syntax-tree check, stdlib only: in ``src/gridest``, every read of
``MAX_MEMBERS`` or ``MAX_MEMBER_CELLS``, as a name or as an attribute, lies
inside ``check_member_matrix`` in ``families.py``.  So every dense member
matrix is refused by one check, with one message.  Assignments (the caps'
definitions) and imports are not reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridest"
CAPS = {"MAX_MEMBERS", "MAX_MEMBER_CELLS"}


def cap_reads(source: str, checker: bool = False) -> list[str]:
    """``"line N: NAME"`` for each read of a member cap in a module; with
    ``checker``, reads inside a function ``check_member_matrix`` are exempt."""
    tree = ast.parse(source)
    exempt = set()
    if checker:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "check_member_matrix":
                exempt.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in CAPS and isinstance(node.ctx, ast.Load) and id(node) not in exempt:
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_only_check_member_matrix_reads_the_member_caps():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "families.py" in modules and SRC / "domain.py" in modules
    found = {
        p.name: cap_reads(p.read_text(encoding="utf-8"), p.name == "families.py")
        for p in modules
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_the_checker_sees_what_it_forbids():
    source = (
        "from .domain import MAX_MEMBERS, MAX_MEMBER_CELLS\n"
        "from . import domain\n"
        "MAX_MEMBER_CELLS = 1 << 28\n"
        "def check_member_matrix(members, points):\n"
        "    return members > MAX_MEMBERS or members * points > MAX_MEMBER_CELLS\n"
        "def load(count):\n"
        "    if count > MAX_MEMBERS:\n"
        "        raise ValueError(domain.MAX_MEMBER_CELLS)\n"
    )
    outside = ["line 7: MAX_MEMBERS", "line 8: MAX_MEMBER_CELLS"]
    assert cap_reads(source, checker=True) == outside
    assert cap_reads(source) == [
        "line 5: MAX_MEMBERS", "line 5: MAX_MEMBER_CELLS", *outside]
