"""Estimators, sample-size planners, deviations, and the grid-hitting check."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.distributions import (
    JointTable,
    Modulus,
    ProductDistribution,
    event_probability,
    marginal_counts,
    sample,
    sample_counts,
)
from gridest.domain import (
    CapExceededError,
    Grid,
    NotEnumerableError,
    ProductDomain,
    build_grid,
    grid_from_counts,
)
from gridest.estimators import (
    DeviationReport,
    EmpiricalMeanEstimator,
    EmpiricalProductEstimator,
    ExactEstimator,
    ProductGridEstimator,
    SamplingPlan,
    build_product_grid_estimator,
    check_grid_hitting,
    empirical_mean,
    phase1_size,
    phase2_size,
    product_case_size,
    sup_deviation,
)
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    PermutationGraphs,
    perm_graph_bits,
    trace_of,
)


def uniform_product(n):
    d = ProductDomain.of_sizes(n, n)
    u = np.full(n, 1.0 / n)
    return ProductDistribution(d, [u, u])


def diagonal_sample(m, n):
    """m points with pairwise distinct rows and columns."""
    return np.stack([np.arange(m), np.arange(m)], axis=1).astype(np.int64)


def identity_plan(eps=0.2, delta=0.1, g=1, d=2, c0=1.0, split=None):
    return SamplingPlan(
        epsilon=eps, delta=delta, lvc=g, width=d,
        modulus=Modulus.identity(), c0=c0, split=split,
    )


class TestPlanners:
    def test_phase1_reference_value(self):
        # identity modulus, C0=1, d=2, g=1, eps=0.2, delta=0.1
        plan = identity_plan()
        assert phase1_size(plan) == 1322

    def test_phase1_quadratic_in_width(self):
        # delta = 1/e makes g + ln(1/delta) = 2, so the value is exactly 200 d^2
        base = SamplingPlan(0.2, 1 / math.e, 1, 2, Modulus.identity())
        double = SamplingPlan(0.2, 1 / math.e, 1, 4, Modulus.identity())
        assert phase1_size(double) == 4 * phase1_size(base)

    def test_phase1_mixture_modulus_factor(self):
        # beta(0.1) drops from 0.1 to 0.01/1.1, a factor 11, squaring to 121
        identity = identity_plan()
        mixture = SamplingPlan(0.2, 0.1, 1, 2, Modulus.for_mixture(2, 2))
        ratio = phase1_size(mixture) / phase1_size(identity)
        assert ratio == pytest.approx(121, rel=1e-3)

    def test_phase1_rejects_vanished_modulus(self):
        # beta^2 underflows to zero in floating point
        table = Modulus.from_table([0.1], [1e-300])
        plan = SamplingPlan(0.4, 0.1, 1, 2, table)
        with pytest.raises(ValueError, match="vanished"):
            phase1_size(plan)

    def test_plans_holding_a_table_modulus_compare_and_hash(self):
        def plan(betas):
            return SamplingPlan(0.4, 0.1, 1, 2, Modulus.from_table([0.1, 0.5], betas))

        assert plan([0.01, 0.2]) == plan([0.01, 0.2])
        assert hash(plan([0.01, 0.2])) == hash(plan([0.01, 0.2]))
        assert plan([0.01, 0.2]) != plan([0.01, 0.3])

    def test_phase2_reference_values(self):
        assert phase2_size(0.1, 0.05, 1000) == 2258
        assert phase2_size(1 - 1e-12, 0.5, 1) == 5

    def test_phase2_monotone_in_class_count(self):
        values = [phase2_size(0.1, 0.1, c) for c in (1, 10, 100, 10_000)]
        assert values == sorted(values)

    def test_product_case_reference_value(self):
        assert product_case_size(0.1, 1 / math.e, g=1, d=1) == 200

    def test_product_case_scalings(self):
        base = product_case_size(0.1, 1 / math.e, g=1, d=1)
        assert product_case_size(0.1, 1 / math.e, g=1, d=2) == 4 * base
        gaps = [
            product_case_size(0.1, 1 / math.e, g=g + 1, d=1)
            - product_case_size(0.1, 1 / math.e, g=g, d=1)
            for g in (1, 2, 3)
        ]
        assert gaps[0] == gaps[1] == gaps[2]


class TestEmpiricalMean:
    def test_all_inside(self):
        d = ProductDomain.of_sizes(3, 3)
        s = np.array([[0, 0], [1, 1]])
        assert empirical_mean(s, np.ones(9, bool), d) == 1.0

    def test_none_inside(self):
        d = ProductDomain.of_sizes(3, 3)
        s = np.array([[0, 0], [1, 1]])
        assert empirical_mean(s, np.zeros(9, bool), d) == 0.0

    def test_birthday_regime_admits_a_covering_permutation(self):
        # distinct rows and columns: some permutation graph contains the sample
        n, m = 100, 5
        dist = uniform_product(n)
        s = diagonal_sample(m, n)
        bits = perm_graph_bits(np.arange(n), dist.domain)
        assert empirical_mean(s, bits, dist.domain) == 1.0
        est = EmpiricalMeanEstimator(s, dist.domain)
        dev = sup_deviation(est, PermutationGraphs(n), dist, method="assignment")
        assert dev == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_empty_sample_rejected(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError, match="empty sample"):
            empirical_mean(np.empty((0, 2)), np.ones(4, bool), d)

    def test_estimator_rejects_an_empty_sample(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError, match="empty sample"):
            EmpiricalMeanEstimator(np.empty((0, 2)), d)

    @pytest.mark.parametrize("cls", [EmpiricalMeanEstimator, EmpiricalProductEstimator])
    def test_estimators_reject_an_untabulable_domain(self, cls):
        d = ProductDomain.of_sizes(1025, 1025)
        with pytest.raises(CapExceededError):
            cls(np.zeros((1, 2), dtype=np.int64), d)


class TestEmpiricalProduct:
    def test_antidiagonal_sample_decouples(self):
        d = ProductDomain.of_sizes(2, 2)
        s = np.array([[0, 0], [1, 1]])
        dist = EmpiricalProductEstimator(s, d).dist
        assert np.allclose(dist.table().probs, 0.25, atol=1e-15)
        # decoupling: the product estimate halves while the mean saturates
        f_id = perm_graph_bits([0, 1], d)
        assert EmpiricalProductEstimator(s, d).estimate(f_id) == pytest.approx(0.5)
        assert empirical_mean(s, f_id, d) == 1.0

    def test_single_point_gives_point_mass(self):
        d = ProductDomain.of_sizes(3, 3)
        dist = EmpiricalProductEstimator(np.array([[2, 1]]), d).dist
        assert event_probability(dist, perm_graph_bits([1, 2, 0], d)) == 0.0
        bits = np.zeros(9, bool)
        bits[d.flat_index(np.array([[2, 1]]))[0]] = True
        assert event_probability(dist, bits) == 1.0

    def test_structured_path_agrees_with_dense_sum(self):
        rng = np.random.default_rng(0)
        n = 6
        d = ProductDomain.of_sizes(n, n)
        s = rng.integers(0, n, size=(50, 2))
        est = EmpiricalProductEstimator(s, d)
        weights = est.cell_weights()
        for _ in range(20):
            perm = rng.permutation(n)
            fast = float(weights[np.arange(n), perm].sum())
            dense = est.estimate(perm_graph_bits(perm, d))
            assert fast == pytest.approx(dense, abs=1e-12)

    def test_point_adapter_and_count_core_are_bit_identical(self):
        rng = np.random.default_rng(5)
        d = ProductDomain.of_sizes(4, 6)
        rows = rng.random((30, d.n_points)) < 0.5
        for m in (1, 7, 500):
            s = np.stack([rng.integers(0, 4, m), rng.integers(0, 6, m)], axis=1)
            counts = [np.bincount(s[:, i], minlength=n) for i, n in enumerate(d.sizes)]
            adapter = EmpiricalProductEstimator(s, d)
            core = EmpiricalProductEstimator.from_counts(counts, d)
            assert np.array_equal(adapter.cell_weights(), core.cell_weights())
            assert np.array_equal(adapter.estimate_many(rows), core.estimate_many(rows))

    @pytest.mark.parametrize("counts, match", [
        ([[1, 2, 0]], "count vector per axis"),
        ([[1, 2, 0], [3, 0]], "count vector per axis"),
        ([[1, -1, 3], [1, 1, 1]], "count vector per axis"),
        ([[1.0, 2.0, 0.0], [3, 0, 0]], "count vector per axis"),
        ([[0, 0, 0], [0, 0, 0]], "empty sample"),
        ([[1, 2, 0], [3, 1, 0]], "disagree"),
    ])
    def test_from_counts_rejects_malformed_counts(self, counts, match):
        d = ProductDomain.of_sizes(3, 3)
        with pytest.raises(ValueError, match=match):
            EmpiricalProductEstimator.from_counts([np.array(c) for c in counts], d)

    def test_uniform_sample_sanity(self):
        # estimates concentrate near 1/n for a fixed permutation
        n, m, trials = 10, 10_000, 200
        dist = uniform_product(n)
        perm = np.roll(np.arange(n), 3)
        bits = perm_graph_bits(perm, dist.domain)
        master = np.random.SeedSequence(123)
        hits = 0
        for child in master.spawn(trials):
            s = sample(dist, m, child)
            est = EmpiricalProductEstimator(s, dist.domain)
            if abs(est.estimate(bits) - 0.1) <= 0.02:
                hits += 1
        assert hits / trials >= 0.95


def small_interval_family():
    # four nested/shifted blocks on a 3x3 domain
    d = ProductDomain.of_sizes(3, 3)
    pts = d.all_points()
    members = [
        (pts[:, 0] <= 1) & (pts[:, 1] <= 1),
        (pts[:, 0] <= 1),
        (pts[:, 1] <= 1),
        np.ones(9, bool),
        np.zeros(9, bool),
    ]
    return ExplicitFamily(d, np.array(members))


class TestProductGridEstimator:
    def test_single_member_family(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = ExplicitFamily(d, [[1, 0, 0, 1]])
        s = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1]])
        plan = identity_plan(split=(2, 4))
        est = build_product_grid_estimator(s, fam, plan)
        assert est.class_count == 1
        member = fam.members_matrix()[0]
        want = empirical_mean(s[2:6], member, d)
        assert est.estimate(member) == pytest.approx(want, abs=1e-15)

    def test_full_grid_separates_all_permutations(self):
        n = 3
        fam = PermutationGraphs(n)
        dist = uniform_product(n)
        s = sample(dist, 60, seed=5)
        est = build_product_grid_estimator(s, fam, identity_plan(split=(30, 30)))
        assert est.grid.is_full
        assert est.class_count == 6

    def test_explicit_build_matches_structured(self):
        n = 3
        fam = PermutationGraphs(n)
        dist = uniform_product(n)
        s = sample(dist, 80, seed=6)
        plan = identity_plan(split=(40, 40))
        structured = build_product_grid_estimator(s, fam, plan)
        explicit = build_product_grid_estimator(s, fam.materialize(), plan)
        assert structured.is_structured and not explicit.is_structured
        for row in fam.members_matrix():
            assert structured.estimate(row) == explicit.estimate(row)

    def test_equal_traces_share_one_estimate(self):
        d = ProductDomain.of_sizes(3, 3)
        fam = small_interval_family()
        # grid misses row 2 and column 2, merging several members
        s = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1], [0, 1]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(4, 3)))
        members = fam.members_matrix()
        from gridest.families import trace_of

        for a in range(len(members)):
            for b in range(len(members)):
                if trace_of(members[a], est.grid) == trace_of(members[b], est.grid):
                    assert est.estimate(members[a]) == est.estimate(members[b])

    def test_unseen_trace_rejected(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = ExplicitFamily(d, [[1, 0, 0, 1]])
        s = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(2, 2)))
        stranger = np.array([0, 1, 1, 0], dtype=bool)
        with pytest.raises(ValueError, match="trace not represented"):
            est.estimate(stranger)

    def test_representative_is_lexicographically_smallest(self):
        d = ProductDomain.of_sizes(2, 2)
        # two members with the same trace on the 1-cell grid {0} x {0}
        a = np.array([0, 1, 1, 0], dtype=bool)
        b = np.array([0, 0, 1, 0], dtype=bool)
        fam = ExplicitFamily(d, [a, b])
        s = np.array([[0, 0], [0, 0], [1, 1]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(2, 1)))
        assert est.class_count == 1
        rep = est.representative(a)
        assert np.array_equal(rep, b)  # 0010 precedes 0110

    def test_phase_separation(self):
        rng = np.random.default_rng(9)
        fam = small_interval_family()
        dist = uniform_product(3)
        s = sample(dist, 60, seed=11)
        plan = identity_plan(split=(30, 30))
        base = build_product_grid_estimator(s, fam, plan)
        members = fam.members_matrix()

        shuffled_s1 = s.copy()
        shuffled_s1[30:] = shuffled_s1[30:][rng.permutation(30)]
        alt = build_product_grid_estimator(shuffled_s1, fam, plan)
        assert np.array_equal(base.grid.cells(), alt.grid.cells())
        for row in members:
            assert base.estimate(row) == alt.estimate(row)

        shuffled_s0 = s.copy()
        shuffled_s0[:30] = shuffled_s0[:30][rng.permutation(30)]
        alt0 = build_product_grid_estimator(shuffled_s0, fam, plan)
        for row in members:
            assert base.estimate(row) == alt0.estimate(row)

    def test_insufficient_sample_with_split(self):
        fam = small_interval_family()
        with pytest.raises(ValueError, match="insufficient sample"):
            build_product_grid_estimator(
                np.array([[0, 0], [1, 1]]), fam, identity_plan(split=(2, 1))
            )

    def test_planner_refuses_thin_phase2(self):
        fam = small_interval_family()
        dist = uniform_product(3)
        plan = identity_plan(eps=0.2, delta=0.1)
        m0 = phase1_size(plan)
        s = sample(dist, m0 + 3, seed=2)
        with pytest.raises(ValueError, match="phase 2 needs"):
            build_product_grid_estimator(s, fam, plan)

    def test_default_split_uses_phase1_size(self):
        fam = small_interval_family()
        dist = uniform_product(3)
        plan = identity_plan(eps=0.4, delta=0.2)
        m0 = phase1_size(plan)
        m1 = phase2_size(0.4, 0.2, 5) + 10
        s = sample(dist, m0 + m1, seed=3)
        est = build_product_grid_estimator(s, fam, plan)
        assert est.split == (m0, m1)


def cell_counts(points, domain):
    """Cell counts of a point sample, by a route independent of the builder."""
    counts = np.zeros(domain.sizes, dtype=np.int64)
    np.add.at(counts, tuple(np.asarray(points).T), 1)
    return counts


class TestCountCore:
    """The point builder is an adapter onto ``ProductGridEstimator.from_counts``."""

    @pytest.mark.parametrize("family", [
        PermutationGraphs(3),                         # structured path
        PermutationGraphs(3).materialize(),           # explicit, full grid
        AxisBoxes(ProductDomain.of_sizes(3, 3)),      # explicit, shared traces
        small_interval_family(),
    ])
    @pytest.mark.parametrize("m0", [2, 40])
    def test_adapter_and_core_bit_identical(self, family, m0):
        dist = uniform_product(3)
        s = sample(dist, m0 + 50, seed=m0)
        plan = identity_plan(split=(m0, 50))
        via_points = build_product_grid_estimator(s, family, plan)
        grid = grid_from_counts(cell_counts(s[:m0], dist.domain), dist.domain)
        via_counts = ProductGridEstimator.from_counts(
            grid, cell_counts(s[m0:], dist.domain), family, plan
        )
        assert via_points.is_structured == via_counts.is_structured
        assert via_points.class_count == via_counts.class_count
        assert via_points.split == via_counts.split == (m0, 50)
        members = family.members_matrix()
        assert np.array_equal(via_points.estimate_many(members),
                              via_counts.estimate_many(members))
        for row in members:
            assert via_points.estimate(row) == via_counts.estimate(row)

    def test_explicit_estimates_are_representative_means(self):
        fam = small_interval_family()
        s = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [2, 2], [0, 1]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(4, 3)))
        for row in fam.members_matrix():
            rep = est.representative(row)
            assert est.estimate(row) == empirical_mean(s[4:], rep, fam.domain)

    def test_counts_must_match_the_split(self):
        d = ProductDomain.of_sizes(2, 2)
        counts = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="plan splits"):
            ProductGridEstimator.from_counts(
                d.full_grid(), counts, PermutationGraphs(2), identity_plan(split=(4, 3))
            )

    def test_counts_must_be_integer_and_domain_shaped(self):
        d = ProductDomain.of_sizes(2, 2)
        plan = identity_plan(split=(4, 2))
        for bad in (np.ones((2, 2)), np.ones((4,), dtype=int),
                    np.array([[3, 0], [0, -1]])):
            with pytest.raises(ValueError, match="integer cell counts"):
                ProductGridEstimator.from_counts(
                    d.full_grid(), bad, PermutationGraphs(2), plan
                )

    def test_partial_grid_on_a_large_permutation_family_is_not_enumerable(self):
        n = 30
        d = ProductDomain.of_sizes(n, n)
        grid = Grid(d, (np.arange(n - 1), np.arange(n)))
        counts = np.zeros((n, n), dtype=np.int64)
        counts[0, 0] = 5
        with pytest.raises(NotEnumerableError):
            ProductGridEstimator.from_counts(
                grid, counts, PermutationGraphs(n), identity_plan(split=(9, 5))
            )


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@st.composite
def _estimator_and_rows(draw):
    """A product-grid estimator (either path) plus dense query rows.

    The rows mix family members with arbitrary sets, so some traces are not
    represented; the phase-1 sample is small, so many members share a trace.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        fam = PermutationGraphs(n)
        d = fam.domain
        s0 = np.stack([np.arange(n), rng.permutation(n)], axis=1)  # full grid
        if draw(st.booleans()):
            fam = fam.materialize()
            s0 = s0[: draw(st.integers(1, n))]
    else:
        sizes = draw(st.tuples(st.integers(1, 3), st.integers(1, 4)))
        d = ProductDomain.of_sizes(*sizes)
        k = draw(st.integers(1, 12))
        fam = ExplicitFamily(d, rng.random((k, d.n_points)) < 0.5)
        s0 = rng.integers(0, sizes, size=(draw(st.integers(1, 4)), 2))
    m1 = draw(st.integers(1, 30))
    s1 = rng.integers(0, d.sizes, size=(m1, 2))
    est = build_product_grid_estimator(
        np.vstack([s0, s1]), fam, identity_plan(split=(len(s0), m1))
    )
    strangers = rng.random((draw(st.integers(0, 3)), d.n_points)) < 0.5
    rows = np.vstack([fam.members_matrix(), strangers])
    return est, rows[rng.permutation(len(rows))]


class TestEstimateMany:
    @given(_estimator_and_rows())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_row_estimate_and_raises_where_it_raises(self, case):
        est, rows = case
        single = [_outcome(lambda row=row: est.estimate(row)) for row in rows]
        ok = np.array([not isinstance(v, str) for v in single])
        if ok.all():
            assert np.array_equal(est.estimate_many(rows), np.array(single))
        else:
            with pytest.raises(ValueError, match="trace not represented"):
                est.estimate_many(rows)
            assert {v for v in single if isinstance(v, str)} == {
                "trace not represented"
            }
        got = est.estimate_many(rows[ok])
        assert np.array_equal(got, np.array(single, dtype=object)[ok].astype(float))

    def test_basic_estimators_agree_with_estimate(self):
        n = 4
        dist = uniform_product(n)
        s = sample(dist, 30, seed=3)
        rows = PermutationGraphs(n).members_matrix()
        for est in (EmpiricalMeanEstimator(s, dist.domain),
                    EmpiricalProductEstimator(s, dist.domain),
                    ExactEstimator(dist)):
            want = [est.estimate(row) for row in rows]
            assert np.allclose(est.estimate_many(rows), want, rtol=0, atol=1e-15)

    def test_rejects_rows_of_the_wrong_width(self):
        dist = uniform_product(3)
        est = ExactEstimator(dist)
        with pytest.raises(ValueError, match="member matrix"):
            est.estimate_many(np.ones((2, 4), dtype=bool))


class TestTraceIndexOracle:
    """The explicit trace index against a brute-force search over the members."""

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 3), st.integers(1, 4)),
           st.integers(1, 12), st.integers(1, 4), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    def test_estimates_are_the_smallest_same_trace_members_means(
        self, seed, sizes, k, m0, m1
    ):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        fam = ExplicitFamily(d, rng.random((k, d.n_points)) < 0.5)
        s = rng.integers(0, sizes, size=(m0 + m1, 2))
        est = build_product_grid_estimator(s, fam, identity_plan(split=(m0, m1)))
        members = fam.members_matrix()
        strangers = rng.random((4, d.n_points)) < 0.5
        for row in np.vstack([members, strangers]):
            same = [r for r in members
                    if trace_of(r, est.grid) == trace_of(row, est.grid)]
            if not same:
                with pytest.raises(ValueError, match="trace not represented"):
                    est.estimate_many(row[None, :])
                with pytest.raises(ValueError, match="trace not represented"):
                    est.representative(row)
                continue
            rep = min(same, key=lambda r: r.tolist())
            assert np.array_equal(est.representative(row), rep)
            assert est.estimate_many(row[None, :])[0] == empirical_mean(s[m0:], rep, d)


class TestOneCellWeightCore:
    """Each number has one route, and each estimator's weights are its formula."""

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 6), st.integers(1, 6)))
    @settings(max_examples=60, deadline=None)
    def test_event_probability_is_the_exact_estimate(self, seed, sizes):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        exact = ExactEstimator(dist)
        for event in rng.random((10, d.n_points)) < rng.random():
            assert event_probability(dist, event) == exact.estimate(event)

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 6), st.integers(1, 6)),
           st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_empirical_mean_is_the_estimator(self, seed, sizes, m):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        s = rng.integers(0, sizes, size=(m, 2))
        est = EmpiricalMeanEstimator(s, d)
        for event in rng.random((10, d.n_points)) < rng.random():
            assert empirical_mean(s, event, d) == est.estimate(event)

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 6), st.integers(1, 6)),
           st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_basic_weights_are_the_direct_formulas(self, seed, sizes, m):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        s = rng.integers(0, sizes, size=(m, 2))
        rows = rng.random((8, d.n_points)) < 0.5
        counts = np.bincount(d.flat_index(s), minlength=d.n_points)
        product = np.outer(*(np.bincount(s[:, i], minlength=n) / m
                             for i, n in enumerate(sizes)))
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        for est, many, weights in [
            (EmpiricalMeanEstimator(s, d), rows @ counts / m, counts.reshape(sizes) / m),
            (EmpiricalProductEstimator(s, d), rows @ product.ravel(), product),
            (ExactEstimator(dist), rows @ dist.probs, dist.reshaped()),
        ]:
            assert np.array_equal(est.estimate_many(rows), many)
            assert np.array_equal(est.cell_weights(), weights)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_structured_product_grid_weights_are_phase2_means(self, seed, n, m1):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(n, n)
        counts = rng.multinomial(m1, np.full(d.n_points, 1.0 / d.n_points))
        family = PermutationGraphs(n)
        est = ProductGridEstimator.from_counts(
            d.full_grid(), counts.reshape(n, n), family, identity_plan(split=(1, m1))
        )
        graphs = family.members_matrix()
        assert est.is_structured
        assert np.array_equal(est.estimate_many(graphs), graphs @ counts / m1)
        assert np.array_equal(est.cell_weights(), counts.reshape(n, n) / m1)

    def test_explicit_product_grid_has_no_cell_weights(self):
        fam, s = small_interval_family(), np.array([[0, 0], [2, 2], [1, 1]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(2, 1)))
        assert not est.is_structured and est.cell_weights() is None


def _empirical_mean_of(dist, m, rng):
    return EmpiricalMeanEstimator(sample(dist, m, rng), dist.domain)


def _structured_product_grid_of(dist, m, rng):
    plan = identity_plan(split=(1, m))
    return ProductGridEstimator.from_counts(
        dist.domain.full_grid(), sample_counts(dist, m, rng),
        PermutationGraphs(dist.domain.sizes[0]), plan,
    )


class TestAssignmentEqualsEnumeration:
    @pytest.mark.parametrize("build", [_empirical_mean_of, _structured_product_grid_of])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_at_small_n(self, build, seed, n, m):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(n, n)
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        est = build(dist, m, rng)
        fam = PermutationGraphs(n)
        a = sup_deviation(est, fam, dist, method="assignment")
        e = sup_deviation(est, fam, dist, method="enumerate")
        assert abs(a - e) <= 1e-12


class TestEstimateOnPredicates:
    @pytest.mark.parametrize("kind", [
        "empirical-mean", "empirical-product", "exact",
        "product-grid-structured", "product-grid-explicit",
    ])
    def test_predicate_equals_its_dense_bits(self, kind):
        n = 4
        dist = uniform_product(n)
        d = dist.domain
        s = sample(dist, 40, seed=8)
        fam = PermutationGraphs(n)
        est = {
            "empirical-mean": lambda: EmpiricalMeanEstimator(s, d),
            "empirical-product": lambda: EmpiricalProductEstimator(s, d),
            "exact": lambda: ExactEstimator(dist),
            "product-grid-structured": lambda: build_product_grid_estimator(
                s, fam, identity_plan(split=(20, 20))),
            "product-grid-explicit": lambda: build_product_grid_estimator(
                s, fam.materialize(), identity_plan(split=(20, 20))),
        }[kind]()
        if kind.startswith("product-grid"):
            assert est.is_structured == kind.endswith("structured")
        for perm in itertools.permutations(range(n)):
            perm = np.array(perm)
            bits = perm_graph_bits(perm, d)

            def graph(pts, perm=perm):
                return pts[:, 1] == perm[pts[:, 0]]

            assert est.estimate(graph) == est.estimate(bits)
            if kind == "product-grid-structured":
                assert np.array_equal(est.representative(graph), bits)


class TestEmpiricalProductFromCounts:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_assignment_equals_enumeration(self, seed, n, m):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(n, n)
        dist = ProductDistribution(d, [rng.dirichlet(np.ones(n)) for _ in range(2)])
        est = EmpiricalProductEstimator.from_counts(marginal_counts(dist, m, rng), d)
        fam = PermutationGraphs(n)
        a = sup_deviation(est, fam, dist, method="assignment")
        e = sup_deviation(est, fam, dist, method="enumerate")
        assert abs(a - e) <= 1e-12


class _CellWeightStub:
    """Estimator stub defined entirely by a per-cell weight matrix."""

    name = "stub"

    def __init__(self, weights, domain):
        self.weights = weights
        self.domain = domain

    def estimate(self, event) -> float:
        bits = np.asarray(event, dtype=bool).reshape(self.weights.shape)
        return float(self.weights[bits].sum())

    def cell_weights(self):
        return self.weights


class TestSupDeviation:
    def test_exact_estimator_has_zero_deviation(self):
        dist = uniform_product(4)
        est = ExactEstimator(dist)
        assert sup_deviation(est, PermutationGraphs(4), dist) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_assignment_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        dist = uniform_product(n)
        fam = PermutationGraphs(n)
        for _ in range(100 if n <= 4 else 20):
            weights = rng.random((n, n))
            weights /= weights.sum()
            est = _CellWeightStub(weights, dist.domain)
            fast = sup_deviation(est, fam, dist, method="assignment")
            slow = max(
                abs(sum(weights[i, p[i]] for i in range(n)) - 1 / n)
                for p in itertools.permutations(range(n))
            )
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_assignment_matches_enumeration_path(self):
        rng = np.random.default_rng(31)
        n = 5
        dist = uniform_product(n)
        fam = PermutationGraphs(n)
        s = rng.integers(0, n, size=(40, 2))
        est = EmpiricalMeanEstimator(s, dist.domain)
        assert sup_deviation(est, fam, dist, "assignment") == pytest.approx(
            sup_deviation(est, fam, dist, "enumerate"), abs=1e-12
        )

    def test_assignment_requires_cell_weights(self):
        dist = uniform_product(3)

        class NoWeights:
            def estimate(self, event):
                return 0.0

            def cell_weights(self):
                return None

        with pytest.raises(ValueError, match="method inapplicable"):
            sup_deviation(NoWeights(), PermutationGraphs(3), dist, "assignment")

    def test_assignment_requires_permutation_family(self):
        dist = uniform_product(3)
        est = ExactEstimator(dist)
        with pytest.raises(ValueError, match="method inapplicable"):
            sup_deviation(est, small_interval_family(), dist, "assignment")


class TestGridHitting:
    def test_full_grid_hits_everything(self):
        d = ProductDomain.of_sizes(3, 3)
        fam = small_interval_family()
        dist = uniform_product(3)
        assert check_grid_hitting(fam, d.full_grid(), dist, eps=0.1) == []

    def test_single_member_family(self):
        d = ProductDomain.of_sizes(3, 3)
        fam = ExplicitFamily(d, [np.ones(9, bool)])
        grid = build_grid(np.array([[0, 0]]), d)
        assert check_grid_hitting(fam, grid, uniform_product(3), eps=0.1) == []

    def test_detects_a_missed_large_difference(self):
        d = ProductDomain.of_sizes(3, 3)
        pts = d.all_points()
        a = pts[:, 0] == 2  # the row missed by the grid below
        b = np.zeros(9, bool)
        fam = ExplicitFamily(d, [a, b])
        grid = build_grid(np.array([[0, 0], [1, 1]]), d)
        pairs = check_grid_hitting(fam, grid, uniform_product(3), eps=0.2)
        assert len(pairs) == 1

    def test_hitting_implies_rounding(self):
        # when no eps/2-large difference is missed, every member sits within
        # eps/2 of its representative in probability
        dist = uniform_product(3)
        fam = small_interval_family()
        eps = 0.4
        for seed in range(5):
            s = sample(dist, 40, seed=seed)
            est = build_product_grid_estimator(
                s, fam, identity_plan(split=(20, 20))
            )
            if check_grid_hitting(fam, est.grid, dist, eps / 2):
                continue
            for row in fam.members_matrix():
                rep = est.representative(row)
                gap = abs(
                    event_probability(dist, row) - event_probability(dist, rep)
                )
                assert gap <= eps / 2 + 1e-12


class TestZeroCellGrid:
    """A grid with an empty axis: every member has the one empty trace."""

    domain = ProductDomain.of_sizes(3, 3)
    grid = Grid(domain, [np.array([], dtype=np.int64), np.array([0])])
    family = AxisBoxes(domain)

    def test_hitting_weighs_every_pair(self):
        pairs = check_grid_hitting(self.family, self.grid, uniform_product(3), 0.3)
        assert len(pairs) == 509

    def test_from_counts_has_one_class(self):
        counts = np.full((3, 3), 2)
        est = ProductGridEstimator.from_counts(
            self.grid, counts, self.family, identity_plan(split=(1, 18))
        )
        assert est.class_count == 1
        # the representative of the one class is the smallest member: empty
        assert np.all(est.estimate_many(self.family.members_matrix()) == 0.0)


def _brute_force_missed_pairs(members, probs, grid_mask, eps, tol=1e-12):
    """Pairs surely missed (P >= eps + tol) and possibly missed (P >= eps - tol)."""
    sure, maybe = set(), set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            xor = members[i] ^ members[j]
            if np.any(xor & grid_mask):
                continue
            p = float(probs[xor].sum())
            if p >= eps - tol:
                maybe.add((i, j))
            if p >= eps + tol:
                sure.add((i, j))
    return sure, maybe


class TestGridHittingBruteForce:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 16),
           st.integers(1, 6), st.floats(0.0, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_pair_loop(self, seed, n, k, m0, eps):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(n, n)
        grid = build_grid(rng.integers(0, n, size=(m0, 2)), d)
        base = rng.random((k, d.n_points)) < 0.5
        # copies that differ from a base member only off the grid share its trace
        flips = (rng.random((k, d.n_points)) < 0.3) & ~grid.point_mask()
        fam = ExplicitFamily(d, np.vstack([base, base ^ flips]))
        probs = rng.dirichlet(np.ones(d.n_points))
        dist = JointTable(d, probs)
        got = check_grid_hitting(fam, grid, dist, eps)
        assert got == sorted(got) and all(i < j for i, j in got)
        sure, maybe = _brute_force_missed_pairs(
            fam.members_matrix(), probs, grid.point_mask(), eps
        )
        assert sure <= set(got) <= maybe


class TestDeviationReport:
    def test_summary_fields(self):
        devs = np.linspace(0, 1, 101)
        report = DeviationReport.from_deviations(
            "empirical-mean", "fam", "dist", seed=4, deviations=devs
        )
        assert report.trials == 101
        assert report.mean == pytest.approx(0.5)
        assert report.q50 == pytest.approx(0.5)
        assert report.q90 == pytest.approx(0.9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DeviationReport.from_deviations("e", "f", "d", 0, np.array([1.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="must lie in"):
            DeviationReport.from_deviations("e", "f", "d", 0, np.array([0.1, np.nan]))

    def test_dict_field_order(self):
        report = DeviationReport.from_deviations(
            "e", "f", "d", 0, np.array([0.25])
        )
        assert list(report.to_dict()) == [
            "estimator", "family", "distribution", "trials", "seed",
            "deviations", "mean", "q50", "q90", "q99", "wall_ms",
        ]
