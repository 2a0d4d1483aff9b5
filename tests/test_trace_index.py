"""The seam between families and estimators: ``SetFamily.trace_index`` and
``SetFamily.max_abs_sum``.

Every family answers ``trace_index(grid)`` by one rule: on a full grid of
its own domain its kept ``_full_index``, built on first use
(``ExplicitTraceIndex`` over its enumerated members, or the permutation
graphs' own index), and on any other grid a fresh ``ExplicitTraceIndex``.
The estimators and ``count_traces`` ask it instead of testing the family's
type.  The index answers sums: the product-grid estimator's queries have one
path, ``sums(members, weights)``, through whichever index answers, and read
nothing else off it but ``class_count``.
``sup_deviation(method="assignment")`` asks the family's ``max_abs_sum``,
which only a family with an exact maximizer has.  The syntax-tree checks
below keep it that way: no library module but ``families.py`` tests for
``PermutationGraphs`` or builds an ``ExplicitTraceIndex``, and
``estimators.py`` builds no full grid, handles no trace keys outside
``check_grid_hitting`` and reads only ``sums`` and ``class_count`` off an
index.
"""

import ast
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridest import estimators, families
from gridest.combinatorics import count_traces
from gridest.distributions import Modulus, ProductDistribution
from gridest.domain import Grid, NotEnumerableError, ProductDomain, row_sums
from gridest.estimators import (
    EmpiricalProductEstimator,
    ExactEstimator,
    ProductGridEstimator,
    SamplingPlan,
    sup_deviation,
)
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    ExplicitTraceIndex,
    IntervalsOnAxis,
    PermutationGraphIndex,
    PermutationGraphs,
    PowerSetFamily,
    UnionsOfPermutations,
    _term_potentials,
)

from _oracles import brute_trace, column_potentials, representative_rows

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
            assert isinstance(index, PermutationGraphIndex) == grid.is_full
            assert isinstance(index, ExplicitTraceIndex) != grid.is_full
        # the full grid of another domain is not the family's
        with pytest.raises(ValueError, match="^grid and family live on different"):
            family.trace_index(ProductDomain.of_sizes(4, 4).full_grid())

    def test_the_other_families_have_an_explicit_index_on_every_grid(self):
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
            assert all(isinstance(family.trace_index(grid), ExplicitTraceIndex)
                       for grid in grids)

    def test_permutation_index_counts_every_graph_as_a_class(self):
        for n in range(1, 6):
            family = PermutationGraphs(n)
            grid = family.domain.full_grid()
            assert family.trace_index(grid).class_count == math.factorial(n)
            # the explicit path over the same members agrees
            assert count_traces(family.materialize(), grid) == math.factorial(n)


def small_plan(m1: int) -> SamplingPlan:
    """A plan that pins the split (1, m1), so no phase-2 size is checked."""
    return SamplingPlan(epsilon=0.2, delta=0.1, lvc=1, width=2,
                        modulus=Modulus.identity(), split=(1, m1))


class TestOneBuildForEveryCaller:
    """``count_traces`` and ``from_counts`` both ask ``trace_index``, so they
    refuse the same grids and families with the same errors, and the
    assignment path asks the family's ``max_abs_sum``, never its members."""

    @pytest.mark.parametrize("family, grid", [
        (PermutationGraphs(3), ProductDomain.of_sizes(2, 2).full_grid()),
        (PermutationGraphs(3), Grid(ProductDomain.of_sizes(4, 4), [[0, 1], [2]])),
        (AxisBoxes(ProductDomain.of_sizes(3, 3)), ProductDomain.of_sizes(4, 4).full_grid()),
    ], ids=["permutations-full", "permutations-partial", "boxes-full"])
    def test_a_grid_of_another_domain_is_refused(self, family, grid):
        counts = np.ones(family.domain.sizes, dtype=np.int64)
        plan = small_plan(int(counts.sum()))
        with pytest.raises(ValueError, match="^grid and family live on different domains$"):
            count_traces(family, grid)
        with pytest.raises(ValueError, match="^grid and family live on different domains$"):
            ProductGridEstimator.from_counts(grid, counts, family, plan)

    def test_a_family_past_the_caps_is_not_enumerable(self):
        d = ProductDomain.of_sizes(5, 5)
        family = PowerSetFamily(d)
        counts = np.ones(d.sizes, dtype=np.int64)
        for grid in (d.full_grid(), Grid(d, [[0], [1, 2]])):
            with pytest.raises(NotEnumerableError, match="^family not trace-enumerable"):
                count_traces(family, grid)
            with pytest.raises(NotEnumerableError, match="^family not trace-enumerable"):
                ProductGridEstimator.from_counts(grid, counts, family, small_plan(25))

    def test_assignment_never_enumerates_a_family_without_a_maximizer(self, monkeypatch):
        d = ProductDomain.of_sizes(5, 5)
        dist = ProductDistribution(d, [np.full(5, 0.2)] * 2)
        enumerated = []
        monkeypatch.setattr(PowerSetFamily, "members_matrix", enumerated.append)
        with pytest.raises(ValueError, match="^method inapplicable: family has no"):
            sup_deviation(ExactEstimator(dist), PowerSetFamily(d), dist, "assignment")
        assert enumerated == []


def random_grid(rng, domain: ProductDomain, kind: str) -> Grid:
    """The full grid, one cell, or a grid that is not full (zero cells allowed)."""
    if kind == "full":
        return domain.full_grid()
    if kind == "one-cell":
        return Grid(domain, [[rng.integers(n)] for n in domain.sizes])
    axes = [np.flatnonzero(rng.random(n) < 0.5) for n in domain.sizes]
    if all(a.size == n for a, n in zip(axes, domain.sizes)):
        axes[0] = axes[0][1:]
    return Grid(domain, axes)


class TestExplicitIndex:
    """``ExplicitTraceIndex`` against a brute-force grouping of the members by
    their bits on the grid's cells."""

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 3), st.integers(1, 4)),
           st.integers(1, 12), st.sampled_from(["full", "partial", "one-cell"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, seed, sizes, k, kind):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        family = ExplicitFamily(d, rng.random((k, d.n_points)) < rng.random())
        grid = random_grid(rng, d, kind)
        # one cell is the full grid of a one-point domain
        assert grid.is_full == (kind == "full" or d.n_points == 1 == grid.cell_count)
        index = ExplicitTraceIndex(family, grid)
        members = family.members_matrix()
        classes = {}
        for row in members:
            classes.setdefault(brute_trace(row, grid), []).append(row)
        assert index.class_count == len(classes)
        # a class's representative is its member with the smallest key, and
        # keys sort like the rows
        smallest = {t: min(rows, key=lambda r: r.tolist()) for t, rows in classes.items()}
        want = np.array([smallest[brute_trace(row, grid)] for row in members])
        assert np.array_equal(representative_rows(index, members), want)
        # the members' complements and random rows: a trace no member has raises
        represented = [members]
        for row in np.vstack([~members, rng.random((6, d.n_points)) < 0.5]):
            trace = brute_trace(row, grid)
            if trace in classes:
                assert np.array_equal(representative_rows(index, row[None])[0],
                                      smallest[trace])
                represented.append(row[None])
            else:
                with pytest.raises(ValueError, match="^trace not represented$"):
                    representative_rows(index, np.vstack([members, row]))
        # the sums over the representatives: float weights within 1e-12,
        # integer counts exactly
        rows = np.vstack(represented)
        reps = [smallest[brute_trace(row, grid)] for row in rows]
        floats = rng.random(d.n_points)
        assert np.allclose(index.sums(rows, floats),
                           [math.fsum(floats[rep]) for rep in reps], rtol=0, atol=1e-12)
        counts = rng.integers(0, 2**40, size=d.n_points)
        assert index.sums(rows, counts.astype(np.float64)).tolist() == [
            float(sum(counts[rep].tolist())) for rep in reps]

    def test_keys_and_rows_are_read_only(self):
        d = ProductDomain.of_sizes(2, 3)
        family = AxisBoxes(d)
        for grid in (d.full_grid(), Grid(d, [[0], [1, 2]])):
            index = ExplicitTraceIndex(family, grid)
            assert not index.class_keys.flags.writeable
            assert not index.rows.flags.writeable

    def test_class_totals_are_computed_once_per_weights_array(self, monkeypatch):
        rng = np.random.default_rng(5)
        d = ProductDomain.of_sizes(4, 4)
        family = AxisBoxes(d)
        grid = Grid(d, [[0, 2], [1, 3]])
        counts = rng.multinomial(50, np.full(d.n_points, 1.0 / d.n_points)).reshape(4, 4)
        est = ProductGridEstimator.from_counts(grid, counts, family, small_plan(50))
        assert not est.is_structured and est.class_count < family.member_count()
        calls = []

        def counting(rows, weights):
            calls.append(weights)
            return row_sums(rows, weights)

        monkeypatch.setattr(families, "row_sums", counting)
        members = family.members_matrix()
        picks = rng.integers(0, len(members), size=200)
        got = [est.estimate(members[i]) for i in picks]
        assert len(calls) == 1 and calls[0] is est.weights
        smallest = {}
        for row in members:
            trace = brute_trace(row, grid)
            smallest[trace] = min(smallest.get(trace, row), row, key=lambda r: r.tolist())
        reps = [smallest[brute_trace(members[i], grid)] for i in picks]
        assert got == [int(counts.ravel()[rep].sum()) / 50 for rep in reps]
        # another weights array gets fresh totals
        other = np.arange(d.n_points, dtype=np.float64)
        got = est.trace_index.sums(members[picks], other)
        assert got.tolist() == [float(other[rep].sum()) for rep in reps]
        assert len(calls) == 2 and calls[1] is other


class AnyGridGraphs(PermutationGraphs):
    """Permutation graphs whose structured index is offered on every grid."""

    def trace_index(self, grid):
        return self._full_index


def full_and_partial_builds(n, m1, seed):
    """The phase-2 counts, and the (grid, estimator) pairs built on them for
    four families on a full and a partial grid."""
    rng = np.random.default_rng(seed)
    d = ProductDomain.of_sizes(n, n)
    counts = rng.multinomial(m1, np.full(d.n_points, 1.0 / d.n_points)).reshape(n, n)
    plan = small_plan(m1)
    return counts, [
        (grid, ProductGridEstimator.from_counts(grid, counts, family, plan))
        for family in (PermutationGraphs(n), PermutationGraphs(n).materialize(),
                       AxisBoxes(d), AnyGridGraphs(n))
        for grid in (d.full_grid(), Grid(d, [np.arange(n - 1), np.arange(n)]))
    ]


class TestCellWeightsOnlyOnFullGrids:
    """``cell_weights()`` feeds the assignment path, which sums ``diff`` over
    the members themselves: right only where every query is its own
    representative, which a full grid guarantees whichever index answers."""

    @given(st.integers(2, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_phase2_means_on_full_grids_and_none_elsewhere(self, n, m1, seed):
        counts, builds = full_and_partial_builds(n, m1, seed)
        kinds = set()
        for grid, est in builds:
            kinds.add((est.is_structured, grid.is_full))
            if grid.is_full:
                assert np.array_equal(est.cell_weights(), counts / m1)
            else:
                assert est.cell_weights() is None
        # both index kinds on both kinds of grid
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


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
        got = family.max_abs_sum(diff)
        assert abs(got - want) <= 1e-12


class TestPermutationIndexSums:
    @given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sums_are_the_rows_own_products(self, n, k, seed):
        rng = np.random.default_rng(seed)
        family = PermutationGraphs(n)
        members = family.members_matrix()[rng.integers(0, math.factorial(n), size=k)]
        weights = rng.normal(size=n * n)
        index = family.trace_index(family.domain.full_grid())
        assert np.array_equal(index.sums(members, weights), members @ weights)


class TestPermutationIndexChecks:
    """The permutation index checks a frozen batch once, any other batch on
    every call."""

    def test_a_frozen_batch_is_checked_once(self, monkeypatch):
        family = PermutationGraphs(4)
        members = family.materialize().members_matrix()
        index = family.trace_index(family.domain.full_grid())
        weights = np.random.default_rng(2).random(16)
        checks = []
        flatnonzero = np.flatnonzero

        def counting(a):
            checks.append(a)
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counting)
        for _ in range(3):
            assert np.array_equal(index.sums(members, weights), members @ weights)
        assert len(checks) == 1
        writable = members.copy()
        for _ in range(2):
            assert np.array_equal(index.sums(writable, weights), members @ weights)
        assert len(checks) == 3

    def test_a_read_only_view_is_checked_again(self):
        family = PermutationGraphs(3)
        index = family.trace_index(family.domain.full_grid())
        base = family.members_matrix()
        view = base[:]
        view.flags.writeable = False
        weights = np.arange(9.0)
        assert np.array_equal(index.sums(view, weights), base @ weights)
        base[0, 0] = ~base[0, 0]
        with pytest.raises(ValueError, match="^trace not represented$"):
            index.sums(view, weights)


class TestOneIndexPerFamily:
    def test_the_family_keeps_its_index(self):
        family = PermutationGraphs(4)
        # trial functions carry the family to worker processes, before and
        # after its index exists
        before = pickle.loads(pickle.dumps(family))
        assert "_full_index" not in vars(family) and "_full_index" not in vars(before)
        index = family.trace_index(family.domain.full_grid())
        assert "_full_index" in vars(family)
        assert family.trace_index(family.domain.full_grid()) is index
        # the class count is computed when read
        assert "class_count" not in vars(index)
        assert index.class_count == 24 and "class_count" in vars(index)
        for again in (before, pickle.loads(pickle.dumps(family))):
            kept = again.trace_index(again.domain.full_grid())
            assert isinstance(kept, PermutationGraphIndex) and kept is not index
            assert kept.class_count == 24
            assert again.trace_index(again.domain.full_grid()) is kept

    def test_each_solve_reads_the_solver_attribute(self, monkeypatch):
        family = PermutationGraphs(3)
        diff = np.arange(9.0).reshape(3, 3) - 4.0
        want = family.max_abs_sum(diff)
        seen = []
        solve = estimators.max_assignment_value

        def recording(weights, potentials=None, sign=1):
            seen.append(weights.shape)
            return solve(weights, potentials, sign)

        # patched after the family was built and used
        monkeypatch.setattr(estimators, "max_assignment_value", recording)
        assert family.max_abs_sum(diff) == want and seen


EXPLICIT = {
    "permutation-graphs": lambda: PermutationGraphs(4).materialize(),
    "axis-boxes": lambda: AxisBoxes(ProductDomain.of_sizes(3, 4)).materialize(),
    "random": lambda: ExplicitFamily(
        ProductDomain.of_sizes(2, 3, 2),
        np.random.default_rng(3).random((40, 12)) < 0.4),
}

#: Every built-in family without an index of its own, explicit or not.
KEEPERS = {
    **EXPLICIT,
    "boxes": lambda: AxisBoxes(ProductDomain.of_sizes(3, 4)),
    "intervals": lambda: IntervalsOnAxis(ProductDomain.of_sizes(3, 4), 1),
    "unions": lambda: UnionsOfPermutations(3, 2),
    "power-set": lambda: PowerSetFamily(ProductDomain.of_sizes(2, 3)),
}


def same_index(got, want) -> bool:
    """Two explicit indexes with the same keys and rows, bit for bit."""
    return (got.class_count == want.class_count
            and got.class_keys.tobytes() == want.class_keys.tobytes()
            and got.rows.tobytes() == want.rows.tobytes())


class TestKeptExplicitIndex:
    """Every family but the permutation graphs keeps an explicit index on its
    full grid, built on first use, as ``PermutationGraphs`` keeps its own;
    every other grid gets a fresh one."""

    @pytest.mark.parametrize("name", sorted(KEEPERS))
    def test_every_full_grid_gets_the_kept_index(self, name):
        family = KEEPERS[name]()
        d = family.domain
        assert "_full_index" not in vars(family)
        index = family.trace_index(d.full_grid())
        assert isinstance(index, ExplicitTraceIndex)
        all_values = Grid(d, [np.arange(n) for n in d.sizes])
        assert all_values is not d.full_grid() and all_values.is_full
        assert family.trace_index(all_values) is index
        assert family.trace_index(d.full_grid()) is index
        assert same_index(index, ExplicitTraceIndex(family, all_values))

    @pytest.mark.parametrize("name", sorted(KEEPERS))
    def test_a_partial_grid_gets_a_fresh_index(self, name):
        family = KEEPERS[name]()
        d = family.domain
        kept = family.trace_index(d.full_grid())
        partial = Grid(d, [np.arange(n - 1 if i == 0 else n) for i, n in enumerate(d.sizes)])
        first, second = family.trace_index(partial), family.trace_index(partial)
        assert first is not second and kept not in (first, second)
        assert same_index(first, ExplicitTraceIndex(family, partial))
        assert same_index(second, first)
        assert family.trace_index(d.full_grid()) is kept

    @pytest.mark.parametrize("name", sorted(KEEPERS))
    def test_a_grid_of_another_domain_is_still_refused(self, name):
        family = KEEPERS[name]()
        other = ProductDomain.of_sizes(*(n + 1 for n in family.domain.sizes))
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="^grid and family live on different domains$"):
                family.trace_index(other.full_grid())
        assert "_full_index" not in vars(family)

    @pytest.mark.parametrize("name", sorted(KEEPERS))
    def test_sums_equal_a_fresh_index(self, name):
        rng = np.random.default_rng(7)
        family = KEEPERS[name]()
        members = family.members_matrix()
        index = family.trace_index(family.domain.full_grid())
        for _ in range(3):
            weights = rng.random(family.domain.n_points)
            fresh = ExplicitTraceIndex(family, family.domain.full_grid())
            assert (index.sums(members, weights).tobytes()
                    == fresh.sums(members, weights).tobytes())

    def test_estimators_on_one_full_grid_share_it_and_agree_alternately(self):
        family = EXPLICIT["permutation-graphs"]()
        d = family.domain
        members = family.members_matrix()
        plan = small_plan(40)
        rng = np.random.default_rng(12)
        counts = [rng.multinomial(40, np.full(d.n_points, 1.0 / d.n_points)).reshape(d.sizes)
                  for _ in range(2)]
        ests = [ProductGridEstimator.from_counts(d.full_grid(), c, family, plan)
                for c in counts]
        assert ests[0].trace_index is ests[1].trace_index
        fresh = [ExplicitTraceIndex(family, d.full_grid()) for _ in ests]
        # the shared one-entry totals cache swaps between the two weights
        for est, index in [*zip(ests, fresh), *zip(ests, fresh), (ests[1], fresh[1])]:
            want = index.sums(members, est.weights) / est.total
            assert est.estimate_many(members).tobytes() == want.tobytes()
            assert est.trace_index._weights is est.weights

    def test_a_frozen_query_is_looked_up_once(self, monkeypatch):
        family = EXPLICIT["axis-boxes"]()
        members = family.members_matrix()
        assert members.base is None and not members.flags.writeable
        index = family.trace_index(family.domain.full_grid())
        fresh = ExplicitTraceIndex(family, family.domain.full_grid())
        rng = np.random.default_rng(4)
        want = [(w, fresh.sums(members, w)) for w in rng.random((3, members.shape[1]))]
        packed = []
        pack_traces = Grid.pack_traces

        def counting(grid, rows):
            packed.append(rows)
            return pack_traces(grid, rows)

        monkeypatch.setattr(Grid, "pack_traces", counting)
        for weights, sums in want * 2:
            assert index.sums(members, weights).tobytes() == sums.tobytes()
        assert len(packed) == 1 and packed[0] is members
        # a writable copy is looked up on every call
        copy = members.copy()
        for weights, sums in want:
            assert index.sums(copy, weights).tobytes() == sums.tobytes()
        assert len(packed) == 4

    def test_a_query_that_may_change_is_looked_up_again(self):
        family = EXPLICIT["random"]()
        members = family.members_matrix()
        index = family.trace_index(family.domain.full_grid())
        weights = np.arange(family.domain.n_points, dtype=np.float64)
        # a read-only view of a writable matrix: its base can still change
        base = members.copy()
        view = base[:]
        view.flags.writeable = False
        assert np.array_equal(index.sums(view, weights), row_sums(members, weights))
        base[0] = ~base[0]
        assert not any((family.members == base[0]).all(axis=1))
        with pytest.raises(ValueError, match="^trace not represented$"):
            index.sums(view, weights)
        # a frozen matrix with a trace no member has is refused every time
        frozen = np.array(base)
        frozen.flags.writeable = False
        for _ in range(2):
            with pytest.raises(ValueError, match="^trace not represented$"):
                index.sums(frozen, weights)

    @pytest.mark.parametrize("name", sorted(KEEPERS))
    def test_the_family_pickles_with_its_kept_index(self, name):
        family = KEEPERS[name]()
        before = pickle.loads(pickle.dumps(family))
        assert "_full_index" not in vars(before)
        index = family.trace_index(family.domain.full_grid())
        after = pickle.loads(pickle.dumps(family))
        assert "_full_index" in vars(after)
        for again in (before, after):
            kept = again.trace_index(again.domain.full_grid())
            assert kept is not index and same_index(kept, index)
            assert again.trace_index(again.domain.full_grid()) is kept


def product_pair(n, seed, truth, m):
    """A width-2 product truth and the empirical product of m counts per axis."""
    rng = np.random.default_rng(seed)
    domain = ProductDomain.of_sizes(n, n)
    if truth == "uniform":
        marginals = [np.full(n, 1.0 / n)] * 2
    else:
        marginals = [rng.dirichlet(np.full(n, 0.5)) for _ in range(2)]
    dist = ProductDistribution(domain, marginals)
    counts = [rng.multinomial(m, p) for p in marginals]
    return EmpiricalProductEstimator.from_counts(counts, domain), dist


def warm_and_cold(est, dist, monkeypatch):
    """``sup_deviation`` warm-started from the product factors, and solved cold."""
    family = PermutationGraphs(dist.domain.sizes[0])
    potentials = []
    solve = estimators.max_assignment_value

    def recording(weights, v=None, sign=1):
        potentials.append(v)
        return solve(weights, v, sign)

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "max_assignment_value", recording)
        warm = sup_deviation(est, family, dist, "assignment")
    assert potentials and all(v is not None for v in potentials)
    # the joint table is no product: the same difference, solved cold
    cold = sup_deviation(est, family, dist.table(), "assignment")
    return warm, cold


class TestWarmStart:
    """Column potentials from the product factors change no value."""

    @given(st.integers(1, 100), st.integers(0, 2**32 - 1),
           st.sampled_from(["uniform", "skewed"]), st.sampled_from([0.5, 2, 20]))
    @example(1, 0, "uniform", 2)
    @example(1, 0, "skewed", 20)
    @example(2, 3, "uniform", 0.5)
    @settings(max_examples=80, deadline=None)
    def test_warm_equals_cold(self, n, seed, truth, per_cell):
        # few points per row give zero counts and integer-count ties
        m = max(1, round(per_cell * n))
        est, dist = product_pair(n, seed, truth, m)
        with pytest.MonkeyPatch.context() as monkeypatch:
            warm, cold = warm_and_cold(est, dist, monkeypatch)
        assert abs(warm - cold) <= 1e-12
        if n <= 6:
            assert abs(warm - sup_deviation(est, PermutationGraphs(n), dist,
                                            "enumerate")) <= 1e-12

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from(["swapped", "negated", "scaled", "random", "zero"]))
    @settings(max_examples=60, deadline=None)
    def test_wrong_terms_give_the_exact_value(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        est, dist = product_pair(n, seed, "skewed", 3 * n)
        (xh, yh), (x, y) = est.marginals, dist.marginals
        diff = np.multiply.outer(xh, yh) - np.multiply.outer(x, y)
        right = ((xh - x, (y + yh) / 2), ((xh + x) / 2, yh - y))
        terms = {
            "swapped": tuple((b, a) for a, b in right),
            "negated": tuple((-a, b) for a, b in right),
            "random": tuple((rng.normal(size=n), rng.normal(size=n)) for _ in range(2)),
            "scaled": tuple((10 * a, b) for a, b in right),
            "random": tuple((rng.normal(size=n), rng.normal(size=n)) for _ in range(2)),
            "zero": ((np.zeros(n), np.zeros(n)),),
        }[kind]
        family = PermutationGraphs(n)
        cold = family.max_abs_sum(diff)
        assert abs(family.max_abs_sum(diff, terms) - cold) <= 1e-12
        if n <= 6:
            want = np.abs(family.members_matrix() @ diff.ravel()).max()
            assert abs(cold - want) <= 1e-12

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_both_signs_equal_the_per_sign_sums(self, n, seed, count):
        # the per-sign loop the shared sort replaced, with tied b and zero a
        def per_sign(terms, sign):
            v = np.zeros(n)
            for a, b in terms:
                order = np.argsort(b)
                y = b[order]
                v[order[1:]] += np.cumsum(np.sort(sign * a)[1:] * np.diff(y))
            return v

        rng = np.random.default_rng(seed)
        terms = [(rng.integers(-2, 3, size=n) * rng.normal(size=n),
                  rng.integers(-2, 3, size=n) / 3) for _ in range(count)]
        both = _term_potentials(terms, n)
        assert both.tobytes() == np.array(
            [per_sign(terms, 1.0), per_sign(terms, -1.0)]).tobytes()

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_one_term_potentials_are_an_optimal_dual(self, n, seed, negate):
        # the rearrangement dual of a rank-1 matrix closes the duality gap
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float)
        sign = -1.0 if negate else 1.0
        weights = sign * np.multiply.outer(a, b)
        v = column_potentials(weights, [(a, b)], sign)
        u = (weights - v).max(axis=1)
        value = estimators.max_assignment_value(weights)
        assert abs(u.sum() + v.sum() - value) <= 1e-12


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


def calls_of(name: str, path: Path) -> list[int]:
    """The lines of ``path`` that call ``name``, as a function or a method."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def test_only_families_build_an_explicit_index():
    # every caller gets its index from ``trace_index``, and the assignment
    # path asks the family, not an index on the full grid
    found = {p.name: calls_of("ExplicitTraceIndex", p)
             for p in sorted(SRC.glob("*.py")) if p.name != "families.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert calls_of("full_grid", SRC / "estimators.py") == []


def test_the_checker_sees_the_forms_it_forbids(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "isinstance(f, PermutationGraphs)\n"
        "isinstance(f, (ExplicitFamily, families.PermutationGraphs))\n"
        "isinstance(f, ExplicitFamily)\n"
        "ExplicitTraceIndex(f, g), isinstance(i, ExplicitTraceIndex)\n"
        "families.ExplicitTraceIndex(f, f.domain.full_grid())\n",
        encoding="utf-8",
    )
    assert isinstance_checks_of("PermutationGraphs", source) == [1, 2]
    assert calls_of("ExplicitTraceIndex", source) == [4, 5]
    assert calls_of("full_grid", source) == [5]


def names_in(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in a syntax tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
    return names


def callers_of(name: str, tree: ast.AST) -> list[str]:
    """The top-level functions that call ``name``, as a function or a method."""
    return [
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef | ast.ClassDef) and any(
            isinstance(c, ast.Call) and name in names_in(c.func) for c in ast.walk(fn))
    ]


def index_attributes(tree: ast.AST) -> set[str]:
    """The attributes read off a trace index: off a name ``trace_index``, an
    attribute ``.trace_index``, a ``trace_index(...)`` call, or a name bound
    to one of those."""
    aliases = {"trace_index"}

    def is_index(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id in aliases
                or isinstance(node, ast.Attribute) and node.attr == "trace_index")

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_index(node.value):
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_index(node.value)}


def test_estimators_hold_no_trace_keys():
    # the trace index answers sums; the estimators only divide them, so no
    # key, class array or representative row is theirs
    tree = ast.parse((SRC / "estimators.py").read_text(encoding="utf-8"))
    keys = {"row_keys", "class_keys", "class_estimates", "_class_ids"}
    assert names_in(tree) & keys == set()
    # check_grid_hitting groups members by trace, left for a shortcut of its own
    assert callers_of("pack_traces", tree) == ["check_grid_hitting"]
    assert index_attributes(tree) == {"sums", "class_count"}


def test_the_key_checkers_see_what_they_forbid():
    tree = ast.parse(
        "from .domain import row_keys as rk\n"
        "class E:\n"
        "    def f(self, grid, m, family, trace_index):\n"
        "        index = family.trace_index(grid)\n"
        "        return (self.index.class_keys, grid.pack_traces(m), index.rows,\n"
        "                self.trace_index.representatives(m), trace_index.sums(m, w),\n"
        "                family.trace_index(grid).class_count)\n"
        "def check_grid_hitting(grid, m):\n"
        "    return grid.pack_traces(m)\n"
    )
    assert {"row_keys", "rk", "class_keys", "pack_traces"} <= names_in(tree)
    assert callers_of("pack_traces", tree) == ["E", "check_grid_hitting"]
    assert index_attributes(tree) == {"rows", "representatives", "sums", "class_count"}
