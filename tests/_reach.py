"""The library statements that Tier-1 never runs, found without a coverage package.

Run from the repository root:

    PYTHONPATH=src python tests/_reach.py [pytest args]

It runs the test suite in this process under ``sys.settrace``, tracing only
frames of ``src/gridest``, then prints every statement of those modules that
has code and never ran, as ``file:line  source``.  Statements run only in a
subprocess (worker processes, CLI runs through ``subprocess``) are not seen
and show up as never run.  Stdlib only; pytest and hypothesis as for the tests.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gridest"
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


class NoDeadline:
    """Tracing slows every example: no hypothesis deadline may fail for it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("reach", deadline=None)
        settings.load_profile("reach")


def code_lines(code) -> set[int]:
    """The lines that a code object and the code objects in it have code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def never_ran(path: Path) -> list[int]:
    """The first lines of the statements of ``path`` that have code, none of it run."""
    source = path.read_text(encoding="utf-8")
    has_code = code_lines(compile(source, str(path), "exec"))
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and node.lineno in has_code
                   and (str(path), node.lineno) not in ran})


if __name__ == "__main__":
    threading.settrace(_calls)
    sys.settrace(_calls)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]],
                         plugins=[NoDeadline()])
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in never_ran(path):
            print(f"{path.name}:{line}  {source[line - 1].strip()}")
    sys.exit(status)
