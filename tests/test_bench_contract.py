"""The benchmark's workloads use only library names that still exist.

The test suite does not run ``perfbench/``, so a change that removes or
renames a name the workloads call would break the benchmark unseen.  This
reads ``perfbench/workloads.py`` as a syntax tree, without importing it, and
resolves every library name it uses.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("distributions", "domain", "estimators", "experiments", "families")


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]`` when the chain starts at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def used_names() -> set[str]:
    """Every ``<module>.<attr>`` and ``<module>.<attr>.<attr>`` the workloads
    read from the library modules, and every ``spans.patched(module, "name")``
    target."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] in MODULES:
                names.add(".".join(chain[:3]))
        elif isinstance(node, ast.Call) and _dotted(node.func) == ["spans", "patched"]:
            module, attr = node.args[:2]
            names.add(f"{module.id}.{attr.value}")
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gridest.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_library_name_the_workloads_use_resolves():
    names = used_names()
    assert sorted(name for name in names if not _resolves(name)) == []


def test_the_collector_sees_calls_attributes_and_patched_targets():
    names = used_names()
    assert {
        "estimators.sup_deviation",             # a call
        "distributions.Modulus.identity",       # a class attribute
        "experiments.run_trials",               # spans.patched targets
        "experiments.check_grid_hitting",
    } <= names
    assert {name.split(".")[0] for name in names} == set(MODULES)
