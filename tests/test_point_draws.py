"""Only ``distributions.sample`` draws points, through the kept alias tables.

A syntax-tree check, stdlib only: no module of ``src/gridest`` draws a
weighted index any other way.  Two kinds of call are flagged:

- a ``choice`` with probabilities, numpy's weighted draw, which rebuilds the
  CDF of its ``p`` on every call: one with a ``p=`` keyword, or with four or
  more positional arguments (``choice(a, size, replace, p)``), as a method
  or as a bare function;
- an inverse-CDF draw: a ``searchsorted`` whose argument is a ``random(...)``
  call, as in ``cdf.searchsorted(rng.random(m))``.

So every weighted point draw goes through ``sample`` and the alias tables
the joint tables keep, and no second draw structure comes back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridest"


def _name(func) -> str | None:
    return getattr(func, "id", getattr(func, "attr", None))


def weighted_draw_calls(source: str) -> list[int]:
    """The lines of a module that call ``choice`` with probabilities, or
    ``searchsorted`` on a ``random(...)`` call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name == "choice" and (len(node.args) >= 4
                                 or any(k.arg == "p" for k in node.keywords)):
            lines.append(node.lineno)
        if name == "searchsorted" and any(
                isinstance(arg, ast.Call) and _name(arg.func) == "random"
                for arg in [*node.args, *(k.value for k in node.keywords)]):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_draws_with_choice_or_an_inverse_cdf():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "distributions.py" in modules and SRC / "experiments.py" in modules
    found = {p.name: weighted_draw_calls(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_checker_sees_what_it_forbids():
    source = (
        "import numpy as np\n"
        "from numpy.random import choice\n"
        "rng = np.random.default_rng(0)\n"
        "rng.choice(3, size=5, p=[0.2, 0.3, 0.5])\n"
        "np.random.choice(3, 5, True, [0.2, 0.3, 0.5])\n"
        "choice(3, p=w)\n"
        "rng.choice([-1, 1], size=4)\n"
        "rng.choice(3, 5, replace=False)\n"
        "cdf.searchsorted(rng.random(5), side='right')\n"
        "np.searchsorted(cdf, v=random(5))\n"
        "ends.searchsorted(starts, side='right')\n"
    )
    assert weighted_draw_calls(source) == [4, 5, 6, 9, 10]
