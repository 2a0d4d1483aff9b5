"""Estimators, sample-size planners, deviations, and the grid-hitting check."""

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from gridest import distributions, estimators, families
from gridest.estimators import (
    DeviationReport,
    EmpiricalMeanEstimator,
    EmpiricalProductEstimator,
    ExactEstimator,
    ProductGridEstimator,
    SamplingPlan,
    build_product_grid_estimator,
    check_grid_hitting,
    max_assignment_value,
    phase1_size,
    phase2_size,
    product_case_size,
    quantiles,
    sup_deviation,
)
from gridest.experiments import ramp_product, two_component_mixture
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    PermutationGraphs,
    perm_graph_bits,
)

from _oracles import (assignment_certificate, brute_mean, brute_trace,
                      grid_hitting_pairs, representative_rows, warm_dual_sides)


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
        mixture = SamplingPlan(0.2, 0.1, 1, 2, Modulus(2, 2))
        ratio = phase1_size(mixture) / phase1_size(identity)
        assert ratio == pytest.approx(121, rel=1e-3)

    def test_phase1_rejects_vanished_modulus(self):
        # beta(0.2) = 0.2^300 / 1.2^299 ~ 1e-233, so beta^2 underflows to zero
        plan = SamplingPlan(0.4, 0.1, 1, 2, Modulus(2, 300))
        with pytest.raises(ValueError, match="vanished"):
            phase1_size(plan)

    def test_plans_holding_a_mixture_modulus_compare_and_hash(self):
        def plan(k, d):
            return SamplingPlan(0.4, 0.1, 1, 2, Modulus(k, d))

        assert plan(2, 2) == plan(2, 2)
        assert hash(plan(2, 2)) == hash(plan(2, 2))
        assert plan(2, 2) != plan(2, 3)
        assert plan(1, 1) == SamplingPlan(0.4, 0.1, 1, 2, Modulus.identity())

    @pytest.mark.parametrize("eps,delta", [
        (1.5, 0.1), (0.1, 2.0), (0.0, 0.1), (0.1, 0.0), (1.0, 0.5), (math.nan, 0.1),
    ])
    def test_planners_reject_accuracy_outside_the_unit_interval(self, eps, delta):
        message = r"epsilon and delta must lie in \(0, 1\)"
        with pytest.raises(ValueError, match=message):
            SamplingPlan(eps, delta, 1, 2, Modulus.identity())
        with pytest.raises(ValueError, match=message):
            product_case_size(eps, delta, g=1, d=2)
        with pytest.raises(ValueError, match=message):
            phase2_size(eps, delta, 5)

    def test_phase2_reference_values(self):
        assert phase2_size(0.1, 0.05, 1000) == 2258
        assert phase2_size(1 - 1e-12, 0.5, 1) == 5

    def test_phase2_matches_the_direct_formula_where_it_is_finite(self):
        # the sum of logs against the log of 4 * count / delta, on planner-like
        # inputs up to 169!, the last factorial a float holds
        counts = [1, 2, 5, 17, 1000, 10**6, 2**53 + 1]
        counts += [math.factorial(n) for n in (3, 6, 10, 20, 30, 50, 100, 150, 169)]
        for eps in np.linspace(0.01, 0.99, 45):
            for delta in np.linspace(0.001, 0.999, 37):
                for count in counts:
                    direct = math.ceil(2.0 / eps**2 * math.log(4.0 * count / delta))
                    assert phase2_size(eps, delta, count) == direct

    def test_phase2_finite_beyond_float_range(self):
        # 4 * 200! overflows a float; the size is (2/eps^2)(ln 200! + ln(4/delta))
        size = phase2_size(0.2, 0.1, math.factorial(200))
        expect = 50.0 * (math.lgamma(201) + math.log(40.0))
        assert size == math.ceil(expect)

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
        assert EmpiricalMeanEstimator(s, d).estimate(np.ones(9, bool)) == 1.0

    def test_none_inside(self):
        d = ProductDomain.of_sizes(3, 3)
        s = np.array([[0, 0], [1, 1]])
        assert EmpiricalMeanEstimator(s, d).estimate(np.zeros(9, bool)) == 0.0

    def test_birthday_regime_admits_a_covering_permutation(self):
        # distinct rows and columns: some permutation graph contains the sample
        n, m = 100, 5
        dist = uniform_product(n)
        s = diagonal_sample(m, n)
        bits = perm_graph_bits(np.arange(n), dist.domain)
        est = EmpiricalMeanEstimator(s, dist.domain)
        assert est.estimate(bits) == 1.0
        dev = sup_deviation(est, PermutationGraphs(n), dist, method="assignment")
        assert dev == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_point_adapter_and_count_core_are_bit_identical(self):
        rng = np.random.default_rng(5)
        d = ProductDomain.of_sizes(4, 6)
        rows = rng.random((30, d.n_points)) < 0.5
        for m in (1, 7, 500):
            s = np.stack([rng.integers(0, 4, m), rng.integers(0, 6, m)], axis=1)
            counts = np.zeros(d.sizes, dtype=np.int64)
            np.add.at(counts, tuple(s.T), 1)
            adapter = EmpiricalMeanEstimator(s, d)
            core = EmpiricalMeanEstimator.from_counts(counts, d)
            assert adapter.total == core.total == m
            assert np.array_equal(adapter.cell_weights(), core.cell_weights())
            assert np.array_equal(adapter.estimate_many(rows), core.estimate_many(rows))

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
        est = EmpiricalProductEstimator(s, d)
        assert all(est.estimate(np.eye(4, dtype=bool)[j]) == 0.25 for j in range(4))
        # decoupling: the product estimate halves while the mean saturates
        f_id = perm_graph_bits([0, 1], d)
        assert est.estimate(f_id) == pytest.approx(0.5)
        assert EmpiricalMeanEstimator(s, d).estimate(f_id) == 1.0

    def test_single_point_gives_point_mass(self):
        d = ProductDomain.of_sizes(3, 3)
        est = EmpiricalProductEstimator(np.array([[2, 1]]), d)
        assert est.estimate(perm_graph_bits([1, 2, 0], d)) == 0.0
        bits = np.zeros(9, bool)
        bits[d.flat_index(np.array([[2, 1]]))[0]] = True
        assert est.estimate(bits) == 1.0

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
        ([[1, 2, 0], [3, 0, -1]], "count vector per axis"),
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
        want = brute_mean(s[2:6], member, d)
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
        for a in range(len(members)):
            for b in range(len(members)):
                if brute_trace(members[a], est.grid) == brute_trace(members[b], est.grid):
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
        rep = representative_rows(est.trace_index, a[None])[0]
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
        cells = fam.domain.all_points()
        assert np.array_equal(cells[base.grid.flat_domain_indices()],
                              cells[alt.grid.flat_domain_indices()])
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
        assert est.total == m1
        first = build_grid(s[:m0], fam.domain)
        assert all(np.array_equal(a, b) for a, b in zip(est.grid.axes, first.axes))


def cell_counts(points, domain):
    """Cell counts of a point sample, by a route independent of the builder."""
    counts = np.zeros(domain.sizes, dtype=np.int64)
    np.add.at(counts, tuple(np.asarray(points).T), 1)
    return counts


def axis_counts(points, domain):
    """Per-axis value counts of a point sample, one vector per axis."""
    return [np.bincount(np.asarray(points)[:, i], minlength=n)
            for i, n in enumerate(domain.sizes)]


class TestCountCore:
    """The point builder is an adapter onto ``ProductGridEstimator.from_counts``."""

    @pytest.mark.parametrize("family", [
        PermutationGraphs(3),                         # structured path
        PermutationGraphs(3).materialize(),           # explicit, full grid
        AxisBoxes(ProductDomain.of_sizes(3, 3)),      # explicit, shared traces
        small_interval_family(),
    ])
    @pytest.mark.parametrize("m0", [2, 40])
    def test_adapter_and_core_bit_identical(self, monkeypatch, family, m0):
        dist = uniform_product(3)
        s = sample(dist, m0 + 50, seed=m0)
        plan = identity_plan(split=(m0, 50))
        calls = []
        validate = ProductDomain.validate_points

        def spy(domain, points):
            calls.append(len(points))
            return validate(domain, points)

        monkeypatch.setattr(ProductDomain, "validate_points", spy)
        via_points = build_product_grid_estimator(s, family, plan)
        assert calls == [m0 + 50]  # the sample is checked once per build
        grid = grid_from_counts(axis_counts(s[:m0], dist.domain), dist.domain)
        via_counts = ProductGridEstimator.from_counts(
            grid, cell_counts(s[m0:], dist.domain), family, plan
        )
        assert via_points.is_structured == via_counts.is_structured
        assert via_points.class_count == via_counts.class_count
        assert via_points.total == via_counts.total == 50
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
            rep = representative_rows(est.trace_index, row[None])[0]
            assert est.estimate(row) == brute_mean(s[4:], rep, fam.domain)

    def test_counts_must_match_the_split(self):
        d = ProductDomain.of_sizes(2, 2)
        counts = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="plan splits"):
            ProductGridEstimator.from_counts(
                d.full_grid(), counts, PermutationGraphs(2), identity_plan(split=(4, 3))
            )

    @pytest.mark.parametrize("build", [
        lambda counts, d: ProductGridEstimator.from_counts(
            d.full_grid(), counts, PermutationGraphs(2), identity_plan(split=(4, 2))),
        EmpiricalMeanEstimator.from_counts,
    ], ids=["product-grid", "empirical-mean"])
    @pytest.mark.parametrize("bad, match", [
        (np.ones((2, 2)), "integer cell counts"),
        (np.ones((4,), dtype=int), "integer cell counts"),
        (np.array([[3, 0], [0, -1]]), "integer cell counts"),
        (np.zeros((2, 2), dtype=np.int64), "empty"),
    ], ids=["float", "flat", "negative", "empty"])
    def test_counts_must_be_integer_and_domain_shaped(self, build, bad, match):
        with pytest.raises(ValueError, match=match):
            build(bad, ProductDomain.of_sizes(2, 2))

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
        self._check(rng, fam, s, m0, m1)

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 3), st.integers(1, 4)),
           st.integers(1, 12), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_full_grid_reuses_the_member_keys(self, seed, sizes, k, m1):
        # phase 1 sees every point, so a member's trace key is its own key
        # and every member is its own class
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        fam = ExplicitFamily(d, rng.random((k, d.n_points)) < rng.random())
        s0 = d.all_points()[rng.permutation(d.n_points)]
        s = np.vstack([s0, rng.integers(0, sizes, size=(m1, 2))])
        est = self._check(rng, fam, s, len(s0), m1)
        assert est.grid.is_full and est.class_count == fam.member_count()

    @staticmethod
    def _check(rng, fam, s, m0, m1):
        d = fam.domain
        est = build_product_grid_estimator(s, fam, identity_plan(split=(m0, m1)))
        members = fam.members_matrix()
        strangers = rng.random((4, d.n_points)) < 0.5
        for row in np.vstack([members, strangers]):
            same = [r for r in members
                    if brute_trace(r, est.grid) == brute_trace(row, est.grid)]
            if not same:
                with pytest.raises(ValueError, match="trace not represented"):
                    est.estimate_many(row[None, :])
                with pytest.raises(ValueError, match="trace not represented"):
                    representative_rows(est.trace_index, row[None, :])
                continue
            rep = min(same, key=lambda r: r.tolist())
            assert np.array_equal(representative_rows(est.trace_index, row[None, :])[0],
                                  rep)
            assert est.estimate_many(row[None, :])[0] == brute_mean(s[m0:], rep, d)
        return est


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
            assert brute_mean(s, event, d) == est.estimate(event)

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

    @pytest.mark.parametrize("k", [1, 4095, 4096, 4097, 9000])
    def test_blocked_product_equals_the_unblocked_one(self, k):
        # the rows go through the product in blocks of 4096
        rng = np.random.default_rng(k)
        d = ProductDomain.of_sizes(7, 9)
        rows = rng.random((k, d.n_points)) < rng.random()
        s = rng.integers(0, d.sizes, size=(500, 2))
        # count weights: integer sums are exact in any order
        mean = EmpiricalMeanEstimator(s, d)
        assert np.array_equal(mean.estimate_many(rows), rows @ mean.weights / 500)
        family = ExplicitFamily(d, rows)
        grid_est = ProductGridEstimator.from_counts(
            d.full_grid(), d.cell_counts(s), family, identity_plan(split=(1, 500)))
        members = family.members_matrix()
        assert np.array_equal(grid_est.estimate_many(members),
                              members @ mean.weights / 500)
        # probability weights: BLAS may sum a block in another order
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        for est in (EmpiricalProductEstimator(s, d), ExactEstimator(dist)):
            gap = np.abs(est.estimate_many(rows) - rows @ est.weights)
            assert gap.max() <= 1e-12

    def test_explicit_product_grid_has_no_cell_weights(self):
        # the grid misses row 1 and column 1; on a full grid it has them
        fam, s = small_interval_family(), np.array([[0, 0], [2, 2], [1, 1]])
        est = build_product_grid_estimator(s, fam, identity_plan(split=(2, 1)))
        assert not est.is_structured and est.cell_weights() is None

    def test_weights_take_the_domain_shape_at_any_width(self):
        d = ProductDomain.of_sizes(2, 3, 2)
        rng = np.random.default_rng(8)
        s = rng.integers(0, d.sizes, size=(30, 3))
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        counts = d.cell_counts(s)
        family = AxisBoxes(d)
        grid_est = ProductGridEstimator.from_counts(
            d.full_grid(), counts, family, identity_plan(split=(1, 30)))
        for est, weights in [
            (EmpiricalMeanEstimator(s, d), counts / 30),
            (ExactEstimator(dist), dist.probs.reshape(d.sizes)),
            (grid_est, counts / 30),
        ]:
            assert np.array_equal(est.cell_weights(), weights)
            # weights of the right shape, and still no maximizer for boxes
            with pytest.raises(ValueError, match="^method inapplicable: family has no"):
                sup_deviation(est, family, dist, "assignment")
        product = EmpiricalProductEstimator(s, d)
        assert product.cell_weights().shape == d.sizes


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
                row = graph(d.all_points())[None, :]
                assert np.array_equal(representative_rows(est.trace_index, row)[0], bits)


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


    def test_marginals_are_the_counts_over_their_total(self, monkeypatch):
        # check_marginal_counts has checked the counts: the pmfs are not checked again
        monkeypatch.setattr(distributions, "as_pmf", _never_called)
        d = ProductDomain.of_sizes(3, 4)
        counts = [np.array([0, 2, 5]), np.array([4, 0, 1, 2])]
        est = EmpiricalProductEstimator.from_counts(counts, d)
        for got, c in zip(est.marginals, counts):
            assert np.array_equal(got, c / 7) and not got.flags.writeable


def _never_called(*args, **kwargs):
    raise AssertionError("called")


class _CellWeightStub:
    """Estimator stub defined entirely by a per-cell weight matrix."""

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
        got = sup_deviation(est, PermutationGraphs(4), dist, "assignment")
        assert got == pytest.approx(0.0, abs=1e-12)

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
            domain = dist.domain

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

    def test_unknown_method_rejected(self):
        dist = uniform_product(3)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            sup_deviation(ExactEstimator(dist), PermutationGraphs(3), dist, "bogus")

    @pytest.mark.parametrize("kind, est_n, fam_n, dist_n, method", [
        # the (6, 6) - (1, 1) difference broadcasts to a value
        (EmpiricalMeanEstimator, 6, 6, 1, "assignment"),
        (EmpiricalMeanEstimator, 5, 6, 6, "assignment"),
        # warm: an empirical product against a product truth
        (EmpiricalProductEstimator, 6, 5, 6, "assignment"),
        (EmpiricalMeanEstimator, 6, 5, 6, "enumerate"),
        (EmpiricalMeanEstimator, 6, 6, 1, "enumerate"),
    ])
    def test_domains_must_agree(self, kind, est_n, fam_n, dist_n, method):
        sample = np.stack([np.arange(est_n), np.arange(est_n)[::-1]], axis=1)
        est = kind(sample, ProductDomain.of_sizes(est_n, est_n))
        with pytest.raises(ValueError, match="live on different domains"):
            sup_deviation(est, PermutationGraphs(fam_n), uniform_product(dist_n),
                          method)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 4), (5, 6), (25,)])
    @pytest.mark.parametrize("terms", [None, ((np.ones(5), np.ones(5)),)])
    def test_max_abs_sum_refuses_a_diff_of_another_shape(self, shape, terms):
        with pytest.raises(ValueError, match=r"need a \(5, 5\) diff"):
            PermutationGraphs(5).max_abs_sum(np.ones(shape), terms)


def _solver_cases():
    """Square and rectangular weights: floats, ties, a constant, negatives."""
    rng = np.random.default_rng(7)
    return [
        rng.random((7, 7)),
        rng.integers(0, 3, (6, 6)).astype(float),
        np.full((5, 5), 0.25),
        rng.normal(size=(6, 6)) - 3.0,
        rng.integers(-2, 2, (4, 6)).astype(float),
        np.array([[1.0]]),
    ]


def _solve_all(solver, matrices):
    return [[np.asarray(part).tolist() for part in solver(m, maximize=maximize)]
            for m in matrices for maximize in (True, False)]


def _run_with_cases(code):
    """Runs ``code`` in a fresh interpreter with the cases as JSON on stdin."""
    src = os.path.dirname(os.path.dirname(estimators.__file__))
    cases = json.dumps([m.tolist() for m in _solver_cases()])
    out = subprocess.run(
        [sys.executable, "-c", _SOLVER_PRELUDE + code], input=cases, check=True,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    ).stdout
    return json.loads(out)


_SOLVER_PRELUDE = """
import importlib.machinery, json, sys
import numpy as np
from gridest import estimators
matrices = [np.array(m, dtype=float) for m in json.load(sys.stdin)]
def solve_all(solver):
    return [[np.asarray(part).tolist() for part in solver(m, maximize=maximize)]
            for m in matrices for maximize in (True, False)]
"""


class TestAssignmentSolverLoader:
    """The solver is scipy's ``_lsap`` extension, loaded without ``scipy.optimize``."""

    def test_values_are_optimal(self):
        for m in _solver_cases():
            if m.shape[0] != m.shape[1]:
                continue
            n = m.shape[0]
            best = max(m[np.arange(n), list(p)].sum()
                       for p in itertools.permutations(range(n)))
            assert max_assignment_value(m) == pytest.approx(best, abs=1e-12)

    def test_same_assignments_as_scipy_optimize(self):
        from scipy.optimize import linear_sum_assignment

        got = _run_with_cases(
            "loaded = solve_all(estimators._linear_sum_assignment())\n"
            "optimize_loaded = 'scipy.optimize' in sys.modules\n"
            "import scipy.optimize\n"
            "print(json.dumps([optimize_loaded, loaded,"
            " solve_all(scipy.optimize.linear_sum_assignment),"
            " solve_all(estimators._linear_sum_assignment()),"
            " [estimators.max_assignment_value(m) for m in matrices]]))\n"
        )
        optimize_loaded, loaded, public_after, loaded_after, values = got
        want = _solve_all(linear_sum_assignment, _solver_cases())
        assert not optimize_loaded
        # importing scipy.optimize after the loader still works, with the same answers
        assert loaded == public_after == loaded_after == want
        assert values == [max_assignment_value(m) for m in _solver_cases()]

    def test_falls_back_to_the_public_import(self):
        from scipy.optimize import linear_sum_assignment

        got = _run_with_cases(
            "finder = importlib.machinery.PathFinder\n"
            "original = finder.find_spec\n"
            "finder.find_spec = staticmethod(lambda name, path=None, target=None:"
            " None if name == '_lsap' else original(name, path, target))\n"
            "loaded = solve_all(estimators._linear_sum_assignment())\n"
            "print(json.dumps(['scipy.optimize' in sys.modules, loaded,"
            " [estimators.max_assignment_value(m) for m in matrices]]))\n"
        )
        optimize_loaded, loaded, values = got
        assert optimize_loaded
        assert loaded == _solve_all(linear_sum_assignment, _solver_cases())
        assert values == [max_assignment_value(m) for m in _solver_cases()]


class TestMinimizeForm:
    """``max_assignment_value`` minimizes ``potentials - sign * weights``
    (``-sign * weights`` cold) with its rows in ``_spread_order``: on a
    unique optimum, the matching the solver finds maximizing
    ``sign * weights - potentials``."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.sampled_from(["floats", "ties", "negative"]), st.booleans(),
           st.sampled_from([1, -1]))
    @settings(max_examples=150, deadline=None)
    def test_same_matching_as_maximize(self, seed, n, kind, warm, sign):
        rng = np.random.default_rng(seed)
        weights = {
            "floats": lambda: rng.random((n, n)),
            "ties": lambda: rng.integers(0, 3, (n, n)) / 7,
            "negative": lambda: rng.normal(size=(n, n)) - 3.0,
        }[kind]()
        potentials = rng.random(n) if warm else None
        signed = sign * weights
        solve = estimators._linear_sum_assignment()
        reduced = signed if potentials is None else signed - potentials
        rows, cols = solve(reduced, maximize=True)
        order = estimators._spread_order(n)
        want = (-signed if potentials is None else potentials - signed)[order]
        seen = []

        def recording(cost, maximize=False):
            got = solve(cost, maximize=maximize)
            seen.append((cost.copy(), maximize, got))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_linear_sum_assignment", lambda: recording)
            value = max_assignment_value(weights, potentials, sign)
        (cost, maximize, (_, solved)), = seen
        assert not maximize and cost.tobytes() == want.tobytes()
        # the solver's row k is row order[k]
        matched = np.empty(n, dtype=solved.dtype)
        matched[order] = solved
        assert value == float(signed[np.arange(n), matched].sum())
        if kind == "ties":
            # another of tied optimal matchings, certified optimal
            _, slack, gap = assignment_certificate(signed, matched)
            assert slack >= -1e-12 and gap <= 1e-12
            assert abs(value - float(signed[rows, cols].sum())) <= 1e-12
        else:
            assert np.array_equal(matched, cols)
            assert value == float(signed[rows, cols].sum())

    @pytest.mark.parametrize("sign", [0, 2, -0.5])
    def test_refuses_a_sign_but_one_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign must be 1 or -1"):
            max_assignment_value(np.eye(3), None, sign)


class TestSpreadOrder:
    """Warm solves take their rows in golden-ratio order and map the matching back."""

    def test_a_cached_read_only_permutation(self):
        for n in range(1, 258):
            order = estimators._spread_order(n)
            assert np.array_equal(np.sort(order), np.arange(n))
            assert not order.flags.writeable
            assert estimators._spread_order(n) is order

    def test_columns_map_back_to_their_rows(self):
        # the solver's row k is row order[k], so it matches row order[k] to
        # column order[k] on the diagonal optimum, and cols[order] = c is the
        # identity where c[order] would match row 1 to column 4, and so on
        order = estimators._spread_order(5)
        assert order.tolist() == [0, 2, 4, 1, 3]
        weights = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        assert max_assignment_value(weights, np.zeros(5)) == 15.0
        assert max_assignment_value(weights, np.full(5, 0.25)) == 15.0

    @example(seed=0, n=1, kind="floats")
    @example(seed=0, n=2, kind="floats")
    @example(seed=1, n=2, kind="ties")
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(["floats", "ties"]))
    @settings(max_examples=100, deadline=None)
    def test_warm_value_equals_enumeration(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        weights = (rng.normal(size=(n, n)) if kind == "floats"
                   else rng.integers(-2, 3, (n, n)) / 3)
        potentials = rng.normal(size=n)
        best = max(weights[np.arange(n), list(p)].sum()
                   for p in itertools.permutations(range(n)))
        assert abs(max_assignment_value(weights, potentials) - best) <= 1e-12


SIGNS = (1, -1)


def _two_solve_deviation(est, dist):
    """The assignment sup-deviation with both signed sides solved."""
    diff = est.cell_weights() - ExactEstimator(dist).cell_weights()
    return max(max_assignment_value(diff), max_assignment_value(-diff))


def _same_float(a, b):
    """Equal as float64 bits: ``==`` and the same sign on a zero."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.fixture
def solves(monkeypatch):
    """Records the ``(weights, potentials, sign)`` of each assignment solve
    ``sup_deviation`` makes."""
    calls = []

    def counting(weights, potentials=None, sign=1):
        calls.append((weights, potentials, sign))
        return max_assignment_value(weights, potentials, sign)

    monkeypatch.setattr(estimators, "max_assignment_value", counting)
    return calls


def _recording_max_abs_sum(patch):
    """Patch ``PermutationGraphs.max_abs_sum`` to record each call's
    ``(diff, terms)``; returns the list it records into."""
    calls = []
    max_abs_sum = PermutationGraphs.max_abs_sum

    def recording(family, diff, terms=None):
        calls.append((diff, terms))
        return max_abs_sum(family, diff, terms)

    patch.setattr(PermutationGraphs, "max_abs_sum", recording)
    return calls


def _warm_solves(diff, terms):
    """The ``(weights, potentials, sign)`` a warm ``max_abs_sum`` should
    solve, in order: ``diff`` itself with each side's potentials and sign,
    the side with the larger unreduced bound first (side 0 on a tie), then
    the other only if its reduced bound reaches the first value (its
    unreduced bound then reaches it too)."""
    sides = warm_dual_sides(diff, terms)
    first = int(sides[1].unreduced > sides[0].unreduced)
    first_value = max_assignment_value(sides[first].weights, sides[first].potentials)
    other = sides[1 - first]
    # the reduced bound is the column potentials' own dual, up to rounding
    assert abs(other.reduced - other.bound) <= 1e-12
    assert other.unreduced >= other.reduced - 1e-12
    wanted = [(diff, sides[first].potentials, SIGNS[first])]
    if other.reduced >= first_value - 1e-12:
        wanted.append((diff, other.potentials, SIGNS[1 - first]))
    return wanted


def _cold_solve_counts(diff):
    """The solves a cold ``max_abs_sum`` makes on ``diff`` under the
    row-bound-only rule and under the one rule, ``(row_only, both)``.

    The side with the larger sum of row maxima is solved first (side 0 on a
    tie).  The row-bound-only rule solves the other side when its row
    bound ``sum(u)`` reaches the first value minus 1e-12; the one rule also
    asks ``sum(u) + sum(p)``, with ``p = max_i (W - u)``, to reach it."""
    sides = (diff, -diff)
    u = [w.max(axis=1) for w in sides]
    first = int(u[1].sum() > u[0].sum())
    cut = max_assignment_value(sides[first]) - 1e-12
    weights, rows = sides[1 - first], u[1 - first]
    p = (weights - rows[:, None]).max(axis=0)
    row_only = rows.sum() >= cut
    return 1 + row_only, 1 + (row_only and rows.sum() + p.sum() >= cut)


def _same_solves(got, wanted):
    """The recorded solves are the wanted ones, bit for bit, in order."""
    return len(got) == len(wanted) and all(
        w.tobytes() == ww.tobytes() and p.tobytes() == pp.tobytes() and s == ss
        for (w, p, s), (ww, pp, ss) in zip(got, wanted)
    )


class TestBoundFirstAssignment:
    """Solving the side that a bound says can win equals solving both sides."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from(["random", "counts", "upper", "lower", "zero"]))
    @settings(max_examples=250, deadline=None)
    def test_equals_the_two_solve_value(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        dist = JointTable(ProductDomain.of_sizes(n, n), rng.dirichlet(np.ones(n * n)))
        truth = dist.reshaped()
        if kind == "random":
            weights = rng.dirichlet(np.ones(n * n)).reshape(n, n)
        elif kind == "counts":
            # counts / m, as phase-2 means are: many ties between cells
            m = int(rng.integers(1, 3 * n * n))
            counts = rng.multinomial(m, np.full(n * n, 1.0 / (n * n)))
            weights = counts.reshape(n, n) / m
        elif kind == "zero":
            weights = truth.copy()
        else:
            # one side dominates; a few cells lean the other way
            lean = rng.random((n, n)) - 0.1
            weights = truth + (lean if kind == "upper" else -lean)
        est = _CellWeightStub(weights, dist.domain)
        got = sup_deviation(est, PermutationGraphs(n), dist, "assignment")
        d = weights - truth
        assert got == max(max_assignment_value(d), max_assignment_value(-d))
        assert _same_float(got, _two_solve_deviation(est, dist))
        if kind == "zero":
            assert got == 0.0

    def test_zero_difference_solves_both_sides(self, solves):
        dist = uniform_product(4)
        est = ExactEstimator(dist)
        got = sup_deviation(est, PermutationGraphs(4), dist, "assignment")
        assert len(solves) == 2
        assert got == 0.0 and _same_float(got, _two_solve_deviation(est, dist))

    def test_equal_sides_solve_both(self, solves):
        # diff is +-1/8 on a checkerboard: both sides are worth 4/8
        dist = uniform_product(4)
        board = np.indices((4, 4)).sum(axis=0) % 2
        est = _CellWeightStub(1 / 16 + (1 - 2 * board) / 8, dist.domain)
        diff = est.cell_weights() - ExactEstimator(dist).cell_weights()
        assert max_assignment_value(diff) == max_assignment_value(-diff) == 0.5
        solves.clear()
        got = sup_deviation(est, PermutationGraphs(4), dist, "assignment")
        assert len(solves) == 2 and got == 0.5
        assert _same_float(got, _two_solve_deviation(est, dist))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_tight_diagonal_bound(self, solves, n):
        # the identity attains the upper side's row-maxima bound exactly
        dist = uniform_product(n)
        extra = 2.0 ** -np.arange(3, 3 + n)
        est = _CellWeightStub(1 / n**2 + np.diag(extra), dist.domain)
        got = sup_deviation(est, PermutationGraphs(n), dist, "assignment")
        assert got == extra.sum() and len(solves) == 1
        assert _same_float(got, _two_solve_deviation(est, dist))

    def test_side_the_row_bound_keeps_is_solved(self, solves):
        dist = uniform_product(3)
        # kept: diff's side has row bound 3/8 and is worth 2/8; -diff's row
        # maxima (0, 1/8, 1/8) reduce its columns to p = 0, so both of its
        # bounds are 2/8 and it is solved too (worth 1/8).  Ruled out: diff
        # has -1/8 down column 0 and 3/8 down column 1, worth 1/4; -diff's
        # row bound 3/8 keeps it, but p = (0, -1/2, -1/8) gives -1/4
        kept = np.array([[0, 1, 0], [0, -1, 1], [0, -1, 1]]) / 8
        ruled_out = np.zeros((3, 3))
        ruled_out[:, 0], ruled_out[:, 1] = -1 / 8, 3 / 8
        for diff, count in ((kept, 2), (ruled_out, 1)):
            est = _CellWeightStub(1 / 9 + diff, dist.domain)
            solved = est.cell_weights() - ExactEstimator(dist).cell_weights()
            assert _cold_solve_counts(solved) == (2, count)
            solves.clear()
            got = sup_deviation(est, PermutationGraphs(3), dist, "assignment")
            assert got == pytest.approx(1 / 4, abs=1e-15) and len(solves) == count
            assert _same_float(got, _two_solve_deviation(est, dist))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_second_solve_exactly_when_its_row_bound_allows(self, seed, n, counts):
        rng = np.random.default_rng(seed)
        dist = JointTable(ProductDomain.of_sizes(n, n), rng.dirichlet(np.ones(n * n)))
        if counts:
            m = int(rng.integers(1, 3 * n * n))
            weights = rng.multinomial(m, dist.probs).reshape(n, n) / m
        else:
            weights = rng.dirichlet(np.ones(n * n)).reshape(n, n)
        diff = weights - dist.reshaped()
        _, count = _cold_solve_counts(diff)
        calls = []

        def counting(w, potentials=None, sign=1):
            calls.append(w.shape)
            return max_assignment_value(w, potentials, sign)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "max_assignment_value", counting)
            got = sup_deviation(_CellWeightStub(weights, dist.domain),
                                PermutationGraphs(n), dist, "assignment")
        assert len(calls) == count
        assert got == max(max_assignment_value(diff), max_assignment_value(-diff))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from(["floats", "ties", "negative"]))
    @settings(max_examples=200, deadline=None)
    def test_cold_value_and_solves_without_terms(self, seed, n, kind):
        # signed floats and ties leave both sides in play; often the row
        # bound keeps the second side and sum(u) + sum(p) rules it out
        rng = np.random.default_rng(seed)
        diff = {
            "floats": lambda: rng.random((n, n)) - 0.5,
            "ties": lambda: rng.integers(-2, 3, (n, n)) / 7,
            "negative": lambda: rng.normal(size=(n, n)) - 3.0,
        }[kind]()
        row_only, count = _cold_solve_counts(diff)
        first = int((-diff).max(axis=1).sum() > diff.max(axis=1).sum())
        calls = []

        def counting(w, potentials=None, sign=1):
            calls.append((w, potentials, sign))
            return max_assignment_value(w, potentials, sign)

        def no_potentials(terms, n):
            raise AssertionError("a cold call builds column potentials")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "max_assignment_value", counting)
            mp.setattr(families, "_term_potentials", no_potentials)
            got = PermutationGraphs(n).max_abs_sum(diff)
        assert _same_float(
            got, max(max_assignment_value(diff), max_assignment_value(-diff)))
        assert len(calls) == count <= row_only
        assert all(potentials is None for _, potentials, _ in calls)
        # every side is solved on diff itself, the first side's sign first
        assert all(w is diff for w, _, _ in calls)
        assert [sign for _, _, sign in calls] == [SIGNS[first], SIGNS[1 - first]][:count]

    def test_phase2_means_take_one_solve(self, solves):
        n, m1 = 30, 3918
        dist = two_component_mixture(n)
        family = PermutationGraphs(n)
        plan = identity_plan(split=(1, m1))
        for seed in range(5):
            est = ProductGridEstimator.from_counts(
                dist.domain.full_grid(), sample_counts(dist, m1, seed), family, plan
            )
            solves.clear()
            got = sup_deviation(est, family, dist, "assignment")
            assert len(solves) == 1
            assert _same_float(got, _two_solve_deviation(est, dist))

    def test_empirical_products_solve_what_their_dual_bounds_allow(
        self, solves, monkeypatch
    ):
        n, m = 20, 256
        dist = ramp_product(n)
        args = _recording_max_abs_sum(monkeypatch)
        counts = []
        for seed in range(5):
            est = EmpiricalProductEstimator.from_counts(
                marginal_counts(dist, m, seed), dist.domain
            )
            solves.clear()
            args.clear()
            got = sup_deviation(est, PermutationGraphs(n), dist, "assignment")
            (diff, terms), = args
            assert terms is not None
            assert _same_solves(solves, _warm_solves(diff, terms))
            assert _same_float(got, _two_solve_deviation(est, dist))
            counts.append(len(solves))
        # the warm bound skips some second solves, not all
        assert sorted(set(counts)) == [1, 2]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 40),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_warm_bounds_hold_and_keep_the_two_solve_value(self, seed, n, m, uniform):
        # uniform truths and few points: count ties often make the sides equal
        rng = np.random.default_rng(seed)
        marginals = [np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
                     for _ in range(2)]
        dist = ProductDistribution(ProductDomain.of_sizes(n, n), marginals)
        est = EmpiricalProductEstimator.from_counts(
            marginal_counts(dist, m, rng), dist.domain
        )
        calls = []

        def counting(w, potentials=None, sign=1):
            calls.append((w, potentials, sign))
            return max_assignment_value(w, potentials, sign)

        with pytest.MonkeyPatch.context() as mp:
            args = _recording_max_abs_sum(mp)
            mp.setattr(estimators, "max_assignment_value", counting)
            got = sup_deviation(est, PermutationGraphs(n), dist, "assignment")
        (diff, terms), = args
        assert terms is not None
        sides = warm_dual_sides(diff, terms)
        for weights, _, bound, unreduced, reduced in sides:
            _, cols = estimators._linear_sum_assignment()(weights, maximize=True)
            optimum, slack, gap = assignment_certificate(weights, cols)
            assert slack >= -1e-12 and gap <= 1e-12
            assert abs(reduced - bound) <= 1e-12 and bound >= optimum - 1e-12
            assert unreduced >= reduced - 1e-12
        # at n = 1, and where counts meet the truth, diff is 0: the sides tie
        assert _same_solves(calls, _warm_solves(diff, terms))
        # both sides solved warm, bit for bit; a cold solve may pick another
        # of tied optimal matchings, whose float sum can differ in the last bit
        two_warm = max(max_assignment_value(side.weights, side.potentials)
                       for side in sides)
        assert _same_float(got, two_warm)
        assert abs(got - _two_solve_deviation(est, dist)) <= 1e-12


def _is_permutation_batch(members, n):
    """The sum-based predicate: every row and column of every graph sums to 1."""
    graphs = members.reshape(-1, n, n)
    return bool(np.all(graphs.sum(axis=1) == 1) and np.all(graphs.sum(axis=2) == 1))


class TestGraphCheck:
    """The permutation graphs' full-grid index accepts exactly the batches of
    permutation graphs, and represents each by itself."""

    @staticmethod
    def _structured(n):
        return PermutationGraphs(n).trace_index(ProductDomain.of_sizes(n, n).full_grid())

    def _agrees(self, index, members, n):
        want = _is_permutation_batch(members, n)
        try:
            reps = representative_rows(index, members)
        except ValueError as exc:
            assert not want and str(exc) == "trace not represented"
        else:
            assert want and np.array_equal(reps, members)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 4),
           st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, seed, n, k, density):
        rng = np.random.default_rng(seed)
        members = rng.random((k, n * n)) < density
        self._agrees(self._structured(n), members, n)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_near_miss_graphs(self, seed, n, k):
        rng = np.random.default_rng(seed)
        graphs = np.zeros((k, n, n), dtype=bool)
        for g in graphs:
            g[np.arange(n), rng.permutation(n)] = True
        for g in graphs[rng.random(k) < 0.5]:
            i, j = rng.integers(0, n, size=2)
            kind = rng.integers(0, 4)
            if kind == 0:
                # move row i's one to row j: two ones next to an empty row
                col = np.flatnonzero(g[i])[0]
                g[i, col] = False
                g[j, col] = True
            elif kind == 1:
                g[i, j] = not g[i, j]  # one cell flipped
            elif kind == 2:
                g[:, [i, j]] = g[:, [j, i]]  # a column swap keeps a graph
            else:
                # row i emptied and a one added to the first graph, so the
                # batch can keep k n ones in all
                g[i] = False
                graphs[0, j, rng.integers(0, n)] = True
        self._agrees(self._structured(n), graphs.reshape(k, n * n), n)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 5),
           st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_graphs_with_flipped_bits(self, seed, n, k, flips):
        # the flatnonzero check accepts and rejects what the block sums did
        rng = np.random.default_rng(seed)
        graphs = np.zeros((k, n, n), dtype=bool)
        for g in graphs:
            g[np.arange(n), rng.permutation(n)] = True
        members = graphs.reshape(k, n * n)
        if k:
            for _ in range(flips):
                members[rng.integers(k), rng.integers(n * n)] ^= True
        self._agrees(self._structured(n), members, n)

    def test_named_near_misses(self):
        n = 3
        index = self._structured(n)
        identity = np.eye(n, dtype=bool)
        doubled = identity.copy()
        doubled[0, 1], doubled[1, 1] = True, False  # two ones above an empty row
        extra = identity.copy()
        extra[0, 1] = True  # n + 1 ones, every row and column met
        short = identity.copy()
        short[2, 2] = False  # n - 1 ones
        for graphs in ([identity], [doubled], [extra], [short], [extra, short],
                       [identity, doubled], []):
            members = np.array(graphs, dtype=bool).reshape(-1, n * n)
            self._agrees(index, members, n)


def _brute_is_permutation_batch(blocks):
    """Every row and every column of each block holds exactly one 1, cell by cell."""
    return all(
        sum(block[r][c] for c in range(len(block))) == 1
        and sum(block[c][r] for c in range(len(block))) == 1
        for block in blocks.tolist()
        for r in range(len(block))
    )


@st.composite
def _stacked_blocks(draw):
    """k <= 5 stacked n x n blocks, n <= 4: permutation graphs, graphs with one
    1 moved inside a block or between blocks, or random bits."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["graphs", "moved-within", "moved-between", "random"]))
    if kind == "random":
        return rng.random((k, n, n)) < rng.random()
    blocks = np.zeros((k, n, n), dtype=bool)
    for block in blocks:
        block[np.arange(n), rng.permutation(n)] = True
    if kind != "graphs":
        src = rng.integers(k)
        dst = src if kind == "moved-within" else rng.integers(k)
        row = rng.integers(n)
        blocks[src, row] = False
        blocks[dst, rng.integers(n), rng.integers(n)] = True
    return blocks


class TestGraphCheckOracle:
    """The structured estimates succeed exactly on batches of permutation graphs."""

    @staticmethod
    def _structured(blocks):
        k, n, _ = blocks.shape
        counts = np.arange(1, n * n + 1).reshape(n, n)
        est = ProductGridEstimator.from_counts(
            ProductDomain.of_sizes(n, n).full_grid(), counts, PermutationGraphs(n),
            identity_plan(split=(1, int(counts.sum()))),
        )
        return est, blocks.reshape(k, n * n)

    @given(_stacked_blocks())
    @settings(max_examples=300, deadline=None)
    def test_succeeds_exactly_on_permutation_graphs(self, blocks):
        est, members = self._structured(blocks)
        if _brute_is_permutation_batch(blocks):
            assert np.array_equal(est.estimate_many(members),
                                  members @ est.weights / est.total)
        else:
            with pytest.raises(ValueError, match="trace not represented"):
                est.estimate_many(members)

    def test_doubled_row_beside_an_empty_row(self):
        # k n ones in all: block 0's row 0 holds two, block 1's row 2 none
        n = 3
        blocks = np.array([np.eye(n), np.eye(n)], dtype=bool)
        blocks[0, 0, 1] = True
        blocks[1, 2, 2] = False
        assert blocks.sum() == 2 * n and not _brute_is_permutation_batch(blocks)
        est, members = self._structured(blocks)
        with pytest.raises(ValueError, match="trace not represented"):
            est.estimate_many(members)

    def test_block_with_every_one_in_one_column(self):
        # every row holds one 1, and with the identity beside it every column
        # of the batch is met; only block 1's own columns are not
        n = 3
        blocks = np.zeros((2, n, n), dtype=bool)
        blocks[0] = np.eye(n, dtype=bool)
        blocks[1, :, 0] = True
        est, members = self._structured(blocks)
        with pytest.raises(ValueError, match="trace not represented"):
            est.estimate_many(members)


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
            probs = dist.table().probs
            for row in fam.members_matrix():
                rep_prob = est.trace_index.sums(row[None], probs)[0]
                gap = abs(event_probability(dist, row) - rep_prob)
                assert gap <= eps / 2 + 1e-12


class TestZeroCellGrid:
    """A grid with an empty axis: every member has the one empty trace."""

    domain = ProductDomain.of_sizes(3, 3)
    grid = Grid(domain, [np.array([], dtype=np.int64), np.array([0])])
    family = AxisBoxes(domain)

    def test_hitting_weighs_every_pair(self):
        pairs = check_grid_hitting(self.family, self.grid, uniform_product(3), 0.3)
        assert len(pairs) == 509
        assert pairs == grid_hitting_pairs(
            self.family, self.grid, uniform_product(3), 0.3
        )

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
    @example(seed=1, n=3, k=4, m0=2, eps=0.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_pair_loop(self, seed, n, k, m0, eps):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(n, n)
        grid = build_grid(rng.integers(0, n, size=(m0, 2)), d)
        base = rng.random((k, d.n_points)) < 0.5
        # copies that differ from a base member only off the grid share its trace
        pts = d.all_points()
        on_grid = np.isin(pts[:, 0], grid.axes[0]) & np.isin(pts[:, 1], grid.axes[1])
        flips = (rng.random((k, d.n_points)) < 0.3) & ~on_grid
        fam = ExplicitFamily(d, np.vstack([base, base ^ flips]))
        probs = rng.dirichlet(np.ones(d.n_points))
        dist = JointTable(d, probs)
        got = check_grid_hitting(fam, grid, dist, eps)
        assert got == sorted(got) and all(i < j for i, j in got)
        sure, maybe = _brute_force_missed_pairs(
            fam.members_matrix(), probs, on_grid, eps
        )
        assert sure <= set(got) <= maybe
        assert got == grid_hitting_pairs(fam, grid, dist, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("points", [
        pytest.param([[0, 0]], id="one-cell"),
        pytest.param([[0, 0], [1, 1]], id="four-cells"),
        pytest.param([[0, 0], [1, 1], [2, 2]], id="full"),
    ])
    def test_classes_of_three_or_more_match_the_label_reference(self, points, eps):
        d = ProductDomain.of_sizes(3, 3)
        grid = build_grid(np.array(points), d)
        rng = np.random.default_rng(5)
        fam = ExplicitFamily(d, rng.random((40, d.n_points)) < 0.5)
        dist = JointTable(d, rng.dirichlet(np.ones(d.n_points)))
        sizes = np.unique(grid.pack_traces(fam.members_matrix()),
                          return_counts=True)[1]
        got = check_grid_hitting(fam, grid, dist, eps)
        assert got == grid_hitting_pairs(fam, grid, dist, eps)
        if grid.is_full:
            assert sizes.max() == 1 and got == []
        else:
            assert sizes.max() >= 3 and got


QUANTILE_QS = [0, 0.5, 0.9, 0.99, 1]
_quantile_rng = np.random.default_rng(40)


class TestQuantiles:
    @pytest.mark.parametrize("values", [
        pytest.param(_quantile_rng.random(101), id="random-101"),
        pytest.param(_quantile_rng.random(200) ** 6, id="skewed-200"),
        pytest.param(_quantile_rng.integers(0, 4, 57) / 3, id="tied"),
        pytest.param(np.full(9, 0.3), id="all-equal"),
        pytest.param(np.array([0.7]), id="length-1"),
        pytest.param(np.array([0.9, 0.1]), id="length-2"),
    ])
    def test_bit_equal_to_np_quantile(self, values):
        got = np.array(quantiles(values, QUANTILE_QS))
        assert got.tobytes() == np.quantile(values, QUANTILE_QS).tobytes()

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_on_any_sample(self, values, qs):
        got = np.array(quantiles(values, qs))
        assert got.tobytes() == np.quantile(values, qs).tobytes()

    def test_upper_weights_interpolate_down_from_the_upper_value(self):
        # numpy's _lerp takes b - (b - a)(1 - t) for t >= 0.5; on these
        # weights a + (b - a) t differs from it in the last bit
        qs = np.linspace(0.5, 1, 51)
        assert any(0.1 + 0.6 * q != 0.7 - 0.6 * (1 - q) for q in qs)
        got = np.array(quantiles([0.1, 0.7], qs))
        assert got.tobytes() == np.quantile([0.1, 0.7], qs).tobytes()


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
        assert list(dataclasses.asdict(report)) == [
            "estimator", "family", "distribution", "trials", "seed",
            "deviations", "mean", "q50", "q90", "q99",
        ]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: identity_plan(g=0), "need lvc >= 1 and width >= 1", id="lvc"),
    pytest.param(lambda: identity_plan(d=0), "need lvc >= 1 and width >= 1", id="width"),
    pytest.param(lambda: identity_plan(split=(0, 5)), "split sizes must be positive",
                 id="split-m0"),
    pytest.param(lambda: identity_plan(split=(5, 0)), "split sizes must be positive",
                 id="split-m1"),
    pytest.param(lambda: phase2_size(0.1, 0.1, 0), "need at least one trace class",
                 id="phase2-classes"),
    pytest.param(lambda: ProductGridEstimator.from_counts(
        ProductDomain.of_sizes(2, 2).full_grid(), np.zeros((2, 2), dtype=np.int64),
        PermutationGraphs(2), identity_plan()),
        "insufficient sample: empty phase 2", id="empty-phase2"),
    # identity_plan() plans a phase 1 of 1322 points
    pytest.param(lambda: build_product_grid_estimator(
        np.zeros((1322, 2), dtype=np.int64), PermutationGraphs(2), identity_plan()),
        "insufficient sample: phase 1 alone needs 1322 points", id="phase1-only"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
