"""The seam between families and estimators: ``SetFamily.trace_index``.

A family that knows its trace structure on a grid says so through
``trace_index``; the estimators, ``sup_deviation`` and ``count_traces`` ask it
instead of testing the family's type.  The syntax-tree check below keeps it
that way: no library module but ``families.py`` tests for
``PermutationGraphs``.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.combinatorics import count_traces
from gridest.domain import Grid, ProductDomain
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    IntervalsOnAxis,
    PermutationGraphs,
    PowerSetFamily,
    UnionsOfPermutations,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "gridest"


def every_grid(domain: ProductDomain):
    """Every grid of the domain: each nonempty set of values per axis."""
    per_axis = [
        [np.array(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
        for n in domain.sizes
    ]
    return [Grid(domain, axes) for axes in itertools.product(*per_axis)]


class TestWhichFamiliesAreStructured:
    def test_permutation_graphs_only_on_their_full_grid(self):
        family = PermutationGraphs(3)
        grids = every_grid(family.domain)
        assert len(grids) == 49
        for grid in grids:
            index = family.trace_index(grid)
            assert (index is not None) == grid.is_full
        # the full grid of another domain is not the family's
        assert family.trace_index(ProductDomain.of_sizes(4, 4).full_grid()) is None

    def test_the_other_families_have_none_on_every_grid(self):
        d = ProductDomain.of_sizes(3, 2)
        square = ProductDomain.of_sizes(3, 3)
        families = [
            ExplicitFamily(d, np.eye(6, dtype=bool)),
            PermutationGraphs(3).materialize(),
            UnionsOfPermutations(3, 1),
            IntervalsOnAxis(d, 1),
            AxisBoxes(d),
            PowerSetFamily(d),
        ]
        for family in families:
            grids = every_grid(family.domain)
            assert len(grids) == (49 if family.domain == square else 21)
            assert all(family.trace_index(grid) is None for grid in grids)

    def test_permutation_index_counts_every_graph_as_a_class(self):
        for n in range(1, 6):
            family = PermutationGraphs(n)
            grid = family.domain.full_grid()
            assert family.trace_index(grid).class_count == math.factorial(n)
            # the explicit path over the same members agrees
            assert count_traces(family.materialize(), grid) == math.factorial(n)


class TestPermutationIndexMaximum:
    """``max_abs_sum`` against every graph's cell sum, at n <= 5."""

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, n, seed, tied):
        rng = np.random.default_rng(seed)
        diff = (rng.integers(-2, 3, size=(n, n)).astype(float) if tied
                else rng.normal(size=(n, n)))
        family = PermutationGraphs(n)
        want = np.abs(family.members_matrix() @ diff.ravel()).max()
        got = family.trace_index(family.domain.full_grid()).max_abs_sum(diff)
        assert abs(got - want) <= 1e-12


def isinstance_checks_of(name: str, path: Path) -> list[int]:
    """The lines of ``path`` that call ``isinstance(..., <name>)``, also
    inside a tuple of classes or through a module attribute."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(getattr(k, "id", getattr(k, "attr", None)) == name for k in kinds):
            lines.append(node.lineno)
    return lines


def test_only_families_tests_for_permutation_graphs():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "estimators.py" in modules
    found = {p.name: isinstance_checks_of("PermutationGraphs", p)
             for p in modules if p.name != "families.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_checker_sees_the_forms_it_forbids(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "isinstance(f, PermutationGraphs)\n"
        "isinstance(f, (ExplicitFamily, families.PermutationGraphs))\n"
        "isinstance(f, ExplicitFamily)\n",
        encoding="utf-8",
    )
    assert isinstance_checks_of("PermutationGraphs", source) == [1, 2]
