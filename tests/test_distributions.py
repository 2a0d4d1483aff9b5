"""Distributions: sampling, box projection, total correlation, moduli."""

import functools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import distributions as distributions_module
from gridest.distributions import (
    ALIAS_POINTS_PER_CELL,
    JointTable,
    MixtureDistribution,
    Modulus,
    ProductDistribution,
    biased_cube_family,
    box_projection,
    code_rate,
    distribution_from_dict,
    distribution_to_dict,
    dump_distribution,
    event_probability,
    exhaustive_event_probabilities,
    gilbert_varshamov_code,
    load_distribution,
    marginal_counts,
    mixture_modulus,
    mixture_tightness_instance,
    sample,
    sample_counts,
    tc_modulus,
    total_correlation,
    _alias_cells,
)
from gridest.domain import CapExceededError, ProductDomain, code_bits
from gridest.estimators import EmpiricalProductEstimator, phase2_size
from gridest.experiments import SCENARIOS, ramp_product, two_component_mixture
from gridest.families import PermutationGraphs, perm_graph_bits

from _oracles import bit_matrix_event_probabilities


def uniform_product(n):
    d = ProductDomain.of_sizes(n, n)
    u = np.full(n, 1.0 / n)
    return ProductDistribution(d, [u, u])


@pytest.mark.parametrize("make, label", [
    (lambda: uniform_product(3), "product(3x3)"),
    (lambda: two_component_mixture(4), "mixture(k=2, 4x4)"),
    (lambda: uniform_product(2).table(), "joint(2x2)"),
], ids=["product", "mixture", "joint"])
def test_report_label(make, label):
    """The label a report prints for the distribution."""
    assert make().describe() == label


class TestConstruction:
    def test_marginal_must_normalize(self):
        d = ProductDomain.of_sizes(2)
        with pytest.raises(ValueError):
            ProductDistribution(d, [[0.5, 0.6]])

    def test_empirical_product_marginals_are_read_only(self):
        domain = ProductDomain.of_sizes(2, 3)
        counts = [np.array([1, 3]), np.array([2, 1, 1])]
        est = EmpiricalProductEstimator.from_counts(counts, domain)
        checked = ProductDistribution(domain, [c / 4 for c in counts])
        assert not any(p.flags.writeable for p in est.marginals)
        with pytest.raises(ValueError, match="read-only"):
            est.marginals[0][0] = 1.0
        assert np.array_equal(est.weights, checked.table().probs)

    def test_callers_arrays_stay_writable_and_apart(self):
        domain = ProductDomain.of_sizes(3)
        u, w = np.array([0.5, 0.25, 0.25]), np.array([0.75, 0.25])
        flat = ProductDistribution(domain, [np.full(3, 1 / 3)])
        product = ProductDistribution(domain, [u])
        mixture = MixtureDistribution(w, [product, flat])
        assert u.flags.writeable and w.flags.writeable
        assert not product.marginals[0].flags.writeable
        assert not mixture.weights.flags.writeable
        # before either table is built
        u[:], w[:] = 1.0, 0.0
        assert product.table().probs.tolist() == [0.5, 0.25, 0.25]
        want = 0.75 * product.table().probs + 0.25 * flat.table().probs
        assert np.array_equal(mixture.table().probs, want)

    def test_mixture_weights_must_normalize(self):
        comp = uniform_product(2)
        with pytest.raises(ValueError):
            MixtureDistribution([0.5, 0.6], [comp, comp])

    def test_mixture_needs_components(self):
        with pytest.raises(ValueError):
            MixtureDistribution([], [])

    def test_joint_table_must_normalize(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError):
            JointTable(d, [0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("build", [
        lambda p: ProductDistribution(ProductDomain.of_sizes(2), [p]),
        lambda p: MixtureDistribution(p, [uniform_product(2)] * 2),
        lambda p: JointTable(ProductDomain.of_sizes(2), p),
    ], ids=["product", "mixture", "joint"])
    @pytest.mark.parametrize("probs", [
        [np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf],
    ], ids=["all-nan", "one-nan", "inf"])
    def test_non_finite_probabilities_rejected(self, build, probs):
        with pytest.raises(ValueError, match="non-finite"):
            build(probs)


class TestTables:
    def test_product_table_is_kept(self):
        dist = ramp_product(4)
        table = dist.table()
        assert dist.table() is table
        want = np.multiply.outer(*dist.marginals).ravel()
        assert np.array_equal(table.probs, want)

    @pytest.mark.parametrize("kind", ["product", "mixture"])
    def test_cap_is_checked_before_the_table_is_allocated(self, kind):
        # 10^10 points: a table would need 74.5 GiB
        sizes = (100_000, 100_000)
        product = ProductDistribution(ProductDomain.of_sizes(*sizes),
                                      [np.full(n, 1.0 / n) for n in sizes])
        dist = product if kind == "product" else MixtureDistribution([1.0], [product])
        for call in (dist.table, lambda: dist.point_prob([[0, 0]]),
                     lambda: sample(dist, 1, 0), lambda: sample_counts(dist, 1, 0)):
            with pytest.raises(CapExceededError, match="too large to tabulate"):
                call()

    def test_product_table_cap_raised_on_the_first_call(self):
        d = ProductDomain.of_sizes(1025, 1025)
        u = np.full(1025, 1 / 1025)
        dist = ProductDistribution(d, [u, u])
        for _ in range(2):
            with pytest.raises(CapExceededError, match="too large to tabulate"):
                dist.table()


class TestSampling:
    def test_point_mass_yields_the_atom(self):
        d = ProductDomain.of_sizes(3, 3)
        dist = ProductDistribution(d, [[0, 1, 0], [0, 0, 1]])
        pts = sample(dist, 50, seed=1)
        assert np.all(pts == [1, 2])

    def test_same_seed_same_sample(self):
        dist = uniform_product(6)
        assert np.array_equal(sample(dist, 100, seed=42), sample(dist, 100, seed=42))

    def test_uniform_frequencies_within_five_sigma(self):
        n, m = 4, 100_000
        dist = uniform_product(n)
        pts = sample(dist, m, seed=7)
        flat = dist.domain.flat_index(pts)
        counts = np.bincount(flat, minlength=n * n)
        p = 1 / (n * n)
        sigma = math.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(counts / m - p) <= 5 * sigma)

    def test_mixture_sampling_hits_both_components(self):
        d = ProductDomain.of_sizes(2, 2)
        a = ProductDistribution(d, [[1, 0], [1, 0]])
        b = ProductDistribution(d, [[0, 1], [0, 1]])
        mix = MixtureDistribution([0.5, 0.5], [a, b])
        pts = sample(mix, 200, seed=3)
        kinds = {tuple(p) for p in pts}
        assert kinds == {(0, 0), (1, 1)}

    def test_joint_sampling_matches_support(self):
        d = ProductDomain.of_sizes(2, 2)
        joint = JointTable(d, [0.5, 0.0, 0.0, 0.5])
        pts = sample(joint, 100, seed=9)
        assert {tuple(p) for p in pts} <= {(0, 0), (1, 1)}

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(uniform_product(2), 0, seed=0)


def _implied_probs(table: JointTable) -> np.ndarray:
    """Each cell's probability under the table's alias draw: its own column's
    threshold plus what the columns that alias it give it, over K."""
    threshold, alias = table.alias
    k = threshold.size
    return (threshold + np.bincount(alias, weights=1 - threshold, minlength=k)) / k


def _side(dist, m) -> str:
    """Which way ``sample_counts`` draws ``m`` points from ``dist``."""
    return "alias" if m <= ALIAS_POINTS_PER_CELL * dist.domain.n_points else "multinomial"


ALIAS_CASES = [
    pytest.param(lambda: ramp_product(7).table(), id="product"),
    pytest.param(lambda: two_component_mixture(6).table(), id="mixture"),
    pytest.param(lambda: JointTable(ProductDomain.of_sizes(3, 4),
                                    [0.0, 0.3, 0.0, 0.05, 0.0, 0.0,
                                     0.25, 0.1, 0.0, 0.2, 0.1, 0.0]), id="joint-zeros"),
    pytest.param(lambda: JointTable(ProductDomain.of_sizes(2, 2), [0.5, 0.0, 0.0, 0.5]),
                 id="joint-dyadic"),
    pytest.param(lambda: JointTable(ProductDomain.of_sizes(5), [0, 0, 1, 0, 0]),
                 id="point-mass"),
    pytest.param(lambda: JointTable(ProductDomain.of_sizes(7), np.full(7, 1 / 7)),
                 id="uniform"),
]


class TestAliasTable:
    @pytest.mark.parametrize("make", ALIAS_CASES)
    def test_implied_probabilities_are_the_table(self, make):
        table = make()
        threshold, alias = table.alias
        assert threshold.shape == alias.shape == table.probs.shape
        assert np.all((threshold >= 0) & (threshold <= 1))
        assert np.max(np.abs(_implied_probs(table) - table.probs)) <= 1e-12

    @pytest.mark.parametrize("make", ALIAS_CASES)
    def test_zero_cells_are_never_drawn(self, make):
        # threshold 0 and the alias of no column: neither way can reach them
        table = make()
        threshold, alias = table.alias
        zero = table.probs == 0
        assert np.all(threshold[zero] == 0)
        assert not np.any(zero[alias[threshold < 1]])

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1,
                    max_size=60).filter(lambda p: sum(p) > 0))
    @settings(max_examples=300, deadline=None)
    def test_implied_probabilities_on_any_pmf(self, raw):
        table = JointTable(ProductDomain.of_sizes(len(raw)), np.divide(raw, sum(raw)))
        threshold, alias = table.alias
        assert np.max(np.abs(_implied_probs(table) - table.probs)) <= 1e-12
        assert not np.any(table.probs[alias[threshold < 1]] == 0)

    def test_kept_and_read_only(self):
        table = two_component_mixture(3).table()
        assert table.alias is table.alias
        assert not any(a.flags.writeable for a in table.alias)

    def test_the_largest_uniform_below_one_stays_in_the_table(self):
        # u K with u the largest double below 1 rounds below K for any K
        class Top:
            @staticmethod
            def random(size):
                return np.full(size, np.nextafter(1.0, 0.0))

        for k in (1, 2, 3, 4, 7, 900, 1 << 10, (1 << 20) - 1):
            table = JointTable(ProductDomain.of_sizes(k), np.full(k, 1.0 / k))
            assert _alias_cells(Top, table.alias, 5).tolist() == [k - 1] * 5


class TestSampleCounts:
    def test_shape_total_and_determinism(self):
        dist = two_component_mixture(3)
        counts = sample_counts(dist, 50, seed=4)
        assert counts.shape == (3, 3) and counts.dtype.kind == "i"
        assert counts.sum() == 50
        assert np.array_equal(counts, sample_counts(dist, 50, seed=4))

    def test_one_generator_draws_consecutive_subsamples(self):
        dist = two_component_mixture(3)
        rng = np.random.default_rng(8)
        first, second = sample_counts(dist, 40, rng), sample_counts(dist, 60, rng)
        assert (first.sum(), second.sum()) == (40, 60)
        again = np.random.default_rng(8)
        assert np.array_equal(first, sample_counts(dist, 40, again))
        assert np.array_equal(second, sample_counts(dist, 60, again))

    @pytest.mark.parametrize("m", [ALIAS_POINTS_PER_CELL * 4, 100],
                             ids=["alias", "multinomial"])
    def test_zero_probability_cells_stay_empty(self, m, request):
        d = ProductDomain.of_sizes(2, 2)
        joint = JointTable(d, [0.5, 0.0, 0.0, 0.5])
        assert _side(joint, m) == request.node.callspec.id
        counts = sample_counts(joint, m, seed=1)
        assert counts.sum() == m and counts[0, 1] == counts[1, 0] == 0

    def test_the_rule_picks_the_draw(self):
        # up to ALIAS_POINTS_PER_CELL points per cell the counts are the alias
        # draw's, one more point and they are the multinomial's
        dist = two_component_mixture(3)
        table = dist.table()
        at = ALIAS_POINTS_PER_CELL * table.probs.size
        got = sample_counts(dist, at, seed=3)
        want = np.bincount(_alias_cells(np.random.default_rng(3), table.alias, at),
                           minlength=table.probs.size)
        assert np.array_equal(got.ravel(), want)
        got = sample_counts(dist, at + 1, seed=3)
        want = np.random.default_rng(3).multinomial(at + 1, table.probs)
        assert np.array_equal(got.ravel(), want)

    def test_a_draw_of_many_blocks_continues_one_stream(self):
        # past one block the alias draw reads the generator's next uniforms
        ramp = np.arange(1600.0)
        dist = JointTable(ProductDomain.of_sizes(40, 40), ramp / ramp.sum())
        m = ALIAS_POINTS_PER_CELL * 1600
        threshold, alias = dist.alias
        x = np.random.default_rng(6).random(m) * 1600
        column = x.astype(np.intp)
        cells = np.where(x - column < threshold[column], column, alias[column])
        want = np.bincount(cells, minlength=1600).reshape(40, 40)
        assert np.array_equal(sample_counts(dist, m, seed=6), want)

    def test_a11_default_phase2_takes_the_alias_side(self):
        # m1 = 3918 points on the 900 cells of [30]^2; at eps = 0.05, m1 =
        # 62678 takes the multinomial
        params = SCENARIOS["pge-end-to-end"].defaults
        n, eps, delta = params["n"], params["eps"], params["delta"]
        dist = two_component_mixture(n)
        m1 = phase2_size(eps, delta, PermutationGraphs(n).member_count())
        assert (m1, dist.domain.n_points) == (3918, 900)
        assert _side(dist, m1) == "alias"
        assert _side(dist, phase2_size(0.05, delta, PermutationGraphs(n).member_count())) \
            == "multinomial"

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_counts(uniform_product(2), 0, seed=0)

    @pytest.mark.parametrize("m", [30, 60], ids=["alias", "multinomial"])
    def test_first_moments_match_m_times_p(self, m, request):
        # E[counts] = m p exactly; the mean of R draws sits within 5 sigma
        dist = two_component_mixture(3)
        assert _side(dist, m) == request.node.callspec.id
        p = dist.table().reshaped()
        draws = 4000
        rng = np.random.default_rng(11)
        mean = np.mean([sample_counts(dist, m, rng) for _ in range(draws)], axis=0)
        sigma = np.sqrt(m * p * (1 - p) / draws)
        assert np.all(np.abs(mean - m * p) <= 5 * sigma)

    @pytest.mark.parametrize("m", [8, 60], ids=["alias", "multinomial"])
    def test_agrees_in_distribution_with_point_sampling(self, m, request):
        # chi-square homogeneity between the count draw and counted points:
        # on the pooled cell totals, and on the number of occupied cells per
        # draw (a statistic of the joint law, not only of the means)
        from scipy.stats import chi2_contingency

        dist = two_component_mixture(3)
        assert _side(dist, m) == request.node.callspec.id
        draws = 3000
        master = np.random.SeedSequence(2024)
        via_counts = [sample_counts(dist, m, s) for s in master.spawn(draws)]
        via_points = [
            np.bincount(dist.domain.flat_index(sample(dist, m, s)), minlength=9)
            for s in master.spawn(draws)
        ]
        totals = np.array([np.sum(via_counts, axis=0).ravel(),
                           np.sum(via_points, axis=0)])
        assert chi2_contingency(totals).pvalue > 1e-3
        occupied = np.array([
            np.bincount([np.count_nonzero(c) for c in draws_], minlength=m + 1)
            for draws_ in (via_counts, via_points)
        ])
        occupied = occupied[:, occupied.sum(axis=0) > 0]
        assert chi2_contingency(occupied).pvalue > 1e-3


def _exact_marginals(dist):
    return box_projection(dist).marginals


def _small_mixture():
    """Two products on a 2 x 3 domain, with different marginals on both axes."""
    d = ProductDomain.of_sizes(2, 3)
    return MixtureDistribution([0.3, 0.7], [
        ProductDistribution(d, [[0.2, 0.8], [0.5, 0.3, 0.2]]),
        ProductDistribution(d, [[0.6, 0.4], [0.1, 0.1, 0.8]]),
    ])


def _compositions(m, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``m``."""
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, parts - 1):
            yield (first, *rest)


def _multinomial_pmf(counts, probs):
    value = float(math.factorial(sum(counts)))
    for c, p in zip(counts, probs):
        value *= p**c / math.factorial(c)
    return value


def _axis_law_from_cells(dist, m):
    """P(row counts, column counts): the cell multinomial summed over tables."""
    probs = dist.table().probs
    law = {}
    for cells in _compositions(m, probs.size):
        table = np.reshape(cells, dist.domain.sizes)
        key = (tuple(table.sum(axis=1).tolist()), tuple(table.sum(axis=0).tolist()))
        law[key] = law.get(key, 0.0) + _multinomial_pmf(cells, probs)
    return law


def _axis_law_from_components(dist, m):
    """The same law by the decomposition: component sizes, then per-axis sums
    of one multinomial per component, the axes independent given the sizes."""
    law = {}
    for sizes in _compositions(m, dist.k):
        p_sizes = _multinomial_pmf(sizes, dist.weights)
        axis_laws = []
        for i, n in enumerate(dist.domain.sizes):
            axis_law = {(0,) * n: 1.0}
            for size, comp in zip(sizes, dist.components):
                summed = {}
                for base, p_base in axis_law.items():
                    for part in _compositions(size, n):
                        key = tuple(a + b for a, b in zip(base, part))
                        p = p_base * _multinomial_pmf(part, comp.marginals[i])
                        summed[key] = summed.get(key, 0.0) + p
                axis_law = summed
            axis_laws.append(axis_law)
        rows, cols = axis_laws
        for r, p_r in rows.items():
            for c, p_c in cols.items():
                law[(r, c)] = law.get((r, c), 0.0) + p_sizes * p_r * p_c
    return law


# ramp_product and the mixture have equal marginals on both axes; the skewed
# product tells the axes apart
MARGINAL_CASES = [
    ramp_product(5),
    two_component_mixture(4),
    ProductDistribution(ProductDomain.of_sizes(3, 4),
                        [[0.6, 0.3, 0.1], [0.1, 0.2, 0.3, 0.4]]),
]
MARGINAL_IDS = ["ramp-product", "mixture", "skewed-product"]


class TestMarginalCounts:
    def test_shapes_totals_and_determinism(self):
        for dist in (ramp_product(5), two_component_mixture(4)):
            counts = marginal_counts(dist, 50, seed=4)
            assert [c.shape for c in counts] == [(n,) for n in dist.domain.sizes]
            assert all(c.dtype.kind == "i" and c.sum() == 50 for c in counts)
            again = marginal_counts(dist, 50, seed=4)
            assert all(np.array_equal(a, b) for a, b in zip(counts, again))

    def test_mixture_counts_are_axis_sums_of_cell_counts(self):
        # a joint table has no axis structure: its marginal counts are the
        # axis sums of its cell counts, on the same random stream
        dist = two_component_mixture(4).table()
        for seed in range(5):
            cells = sample_counts(dist, 37, seed=seed)
            rows, cols = marginal_counts(dist, 37, seed=seed)
            assert np.array_equal(rows, cells.sum(axis=1))
            assert np.array_equal(cols, cells.sum(axis=0))

    def test_a_generator_is_used_as_is(self):
        dist = ramp_product(5)
        rng = np.random.default_rng(8)
        first, second = marginal_counts(dist, 40, rng), marginal_counts(dist, 60, rng)
        again = np.random.default_rng(8)
        for want in (first, second):
            got = marginal_counts(dist, int(want[0].sum()), again)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            marginal_counts(ramp_product(3), 0, seed=0)

    def test_mixture_axis_law_equals_the_cell_law_exactly(self):
        # the law of (row counts, column counts) by the component draw, and by
        # summing the cell multinomial over every count table, agree to 1e-12
        dist = _small_mixture()
        for m in range(1, 5):
            via_cells = _axis_law_from_cells(dist, m)
            via_components = _axis_law_from_components(dist, m)
            assert sum(via_cells.values()) == pytest.approx(1.0, abs=1e-12)
            for key in via_cells.keys() | via_components.keys():
                gap = abs(via_cells.get(key, 0.0) - via_components.get(key, 0.0))
                assert gap <= 1e-12, key

    def test_mixture_draws_follow_the_exact_axis_law(self):
        # goodness of fit of the drawn (row, column) counts to the exact law,
        # outcomes with fewer than 5 expected draws pooled into one
        from scipy.stats import chisquare

        dist, m, draws = _small_mixture(), 3, 4000
        law = _axis_law_from_cells(dist, m)
        rng = np.random.default_rng(2024)
        seen = {}
        for _ in range(draws):
            key = tuple(tuple(c.tolist()) for c in marginal_counts(dist, m, rng))
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= set(law)
        big = [k for k, p in law.items() if p * draws >= 5]
        observed = [seen.get(k, 0) for k in big]
        expected = [law[k] * draws for k in big]
        observed.append(draws - sum(observed))
        expected.append(draws - sum(expected))
        assert chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("dist", MARGINAL_CASES, ids=MARGINAL_IDS)
    def test_first_moments_match_m_times_p(self, dist):
        # E[counts_i] = m p_i exactly; the mean of R draws sits within 5 sigma
        m, draws = 30, 3000
        rng = np.random.default_rng(11)
        drawn = [marginal_counts(dist, m, rng) for _ in range(draws)]
        for axis, p in enumerate(_exact_marginals(dist)):
            mean = np.mean([c[axis] for c in drawn], axis=0)
            sigma = np.sqrt(m * p * (1 - p) / draws)
            assert np.all(np.abs(mean - m * p) <= 5 * sigma)

    @pytest.mark.parametrize("dist", MARGINAL_CASES, ids=MARGINAL_IDS)
    def test_agrees_in_distribution_with_point_marginals(self, dist):
        # chi-square homogeneity between the count draw and the counted axes
        # of sampled points: pooled totals per axis, and the joint law of the
        # number of occupied values on the two axes of one draw
        from scipy.stats import chi2_contingency

        m, draws = 6, 2000
        master = np.random.SeedSequence(2024)
        via_counts = [marginal_counts(dist, m, s) for s in master.spawn(draws)]
        via_points = []
        for s in master.spawn(draws):
            pts = sample(dist, m, s)
            via_points.append([np.bincount(pts[:, i], minlength=n)
                               for i, n in enumerate(dist.domain.sizes)])
        for axis in range(2):
            totals = np.array([np.sum([c[axis] for c in draws_], axis=0)
                               for draws_ in (via_counts, via_points)])
            assert chi2_contingency(totals).pvalue > 1e-3
        occupied = np.array([
            np.bincount([8 * np.count_nonzero(c[0]) + np.count_nonzero(c[1])
                         for c in draws_], minlength=64)
            for draws_ in (via_counts, via_points)
        ])
        occupied = occupied[:, occupied.sum(axis=0) > 0]
        assert chi2_contingency(occupied).pvalue > 1e-3


class TestBoxProjection:
    def test_product_is_fixed_point(self):
        d = ProductDomain.of_sizes(2, 3)
        dist = ProductDistribution(d, [[0.3, 0.7], [0.2, 0.3, 0.5]])
        table = dist.table()
        back = box_projection(JointTable(d, table.probs))
        for got, want in zip(back.marginals, dist.marginals):
            assert np.allclose(got, want, atol=1e-12)

    def test_diagonal_projects_to_uniform(self):
        d = ProductDomain.of_sizes(2, 2)
        diag = JointTable(d, [0.5, 0.0, 0.0, 0.5])
        box = box_projection(diag)
        assert np.allclose(box.table().probs, 0.25, atol=1e-12)

    def test_point_mass_projects_to_point_mass(self):
        d = ProductDomain.of_sizes(3, 3)
        probs = np.zeros(9)
        probs[d.flat_index(np.array([[2, 1]]))[0]] = 1.0
        box = box_projection(JointTable(d, probs))
        pts = sample(box, 20, seed=0)
        assert np.all(pts == [2, 1])


class TestEventProbability:
    def test_empty_and_full(self):
        dist = uniform_product(3)
        assert event_probability(dist, np.zeros(9, bool)) == 0.0
        assert event_probability(dist, np.ones(9, bool)) == pytest.approx(1.0)

    def test_predicate_is_its_dense_bits(self):
        dist = ramp_product(4)
        diagonal = event_probability(dist, lambda pts: pts[:, 0] == pts[:, 1])
        assert diagonal == event_probability(dist, np.eye(4, dtype=bool))

    @pytest.mark.parametrize("event", [
        lambda pts: pts[1:, 0] == 0,
        lambda pts: True,
        np.zeros(8, bool),
        np.zeros(10, bool),
    ])
    def test_wrong_length_rejected(self, event):
        with pytest.raises(ValueError, match=re.escape(
                "need a (k, 9) member matrix, of member length 9")):
            event_probability(uniform_product(3), event)

    def test_permutation_graph_under_uniform(self):
        n = 5
        dist = uniform_product(n)
        bits = perm_graph_bits([2, 0, 1, 4, 3], dist.domain)
        assert event_probability(dist, bits) == pytest.approx(1 / n, abs=1e-12)

    def test_cell_matrix_fast_path_agrees(self):
        # structured per-cell sum vs the generic dense sum
        rng = np.random.default_rng(2)
        d = ProductDomain.of_sizes(4, 4)
        mix = MixtureDistribution(
            rng.dirichlet(np.ones(2)),
            [
                ProductDistribution(d, [rng.dirichlet(np.ones(4)) for _ in range(2)])
                for _ in range(2)
            ],
        )
        perm = np.array([3, 1, 0, 2])
        cells = mix.table().reshaped()
        fast = cells[np.arange(4), perm].sum()
        generic = event_probability(mix, perm_graph_bits(perm, d))
        assert fast == pytest.approx(generic, abs=1e-12)

    def test_tightness_instance_probability(self):
        mix, event = mixture_tightness_instance(3, 2, 0.6)
        assert event_probability(mix, event) == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("kind", ["product", "mixture", "joint"])
    @pytest.mark.parametrize("point, axis", [
        ([-1, 0], 0),  # would wrap to the last value of axis 0
        ([0, 3], 1),   # a joint table would read cell (1, 0)
        ([3, 0], 0),   # past the end of axis 0
    ])
    def test_point_prob_rejects_points_outside_the_domain(self, kind, point, axis):
        dist = {"product": uniform_product(3), "mixture": two_component_mixture(3),
                "joint": two_component_mixture(3).table()}[kind]
        with pytest.raises(ValueError, match=f"coordinate {axis} out of range"):
            dist.point_prob([[1, 1], point])

    @pytest.mark.parametrize("kind", ["product", "mixture", "joint"])
    @pytest.mark.parametrize("sizes", [(3, 3), (2, 3, 4)])
    def test_point_prob_reads_each_point_of_the_table(self, kind, sizes):
        domain = ProductDomain.of_sizes(*sizes)
        rng = np.random.default_rng(len(sizes))
        mixture = MixtureDistribution([0.3, 0.7], [
            ProductDistribution(domain, [rng.dirichlet(np.ones(n)) for n in sizes])
            for _ in range(2)
        ])
        dist = {"product": mixture.components[0], "mixture": mixture,
                "joint": mixture.table()}[kind]
        points = dist.domain.all_points()
        assert np.array_equal(dist.point_prob(points), dist.table().probs)

    @pytest.mark.parametrize("kind", ["product", "mixture"])
    def test_point_prob_past_the_cell_cap_raises(self, kind):
        # 1025 x 1024 points, over MAX_CELLS: read through the table, as
        # every other table read is
        sizes = (1025, 1024)
        product = ProductDistribution(ProductDomain.of_sizes(*sizes),
                                      [np.full(n, 1.0 / n) for n in sizes])
        dist = product if kind == "product" else MixtureDistribution([1.0], [product])
        with pytest.raises(CapExceededError, match="too large to tabulate"):
            dist.point_prob([[0, 0]])

    @pytest.mark.parametrize("kind", ["product", "mixture", "joint"])
    def test_point_prob_names_the_bad_point_by_its_index(self, kind):
        dist = {"product": uniform_product(3), "mixture": two_component_mixture(3),
                "joint": two_component_mixture(3).table()}[kind]
        with pytest.raises(ValueError) as info:
            dist.point_prob([[1, 1], [2, 2], [0, 3]])
        assert str(info.value) == "invalid point at index 2: coordinate 1 out of range [0, 3)"

    @pytest.mark.parametrize("kind", ["product", "mixture", "joint"])
    def test_point_prob_checks_its_points_once(self, kind, monkeypatch):
        dist = {"product": uniform_product(3), "mixture": two_component_mixture(3),
                "joint": two_component_mixture(3).table()}[kind]
        calls = []
        check = ProductDomain.validate_points

        def counted(domain, points):
            calls.append(len(points))
            return check(domain, points)

        monkeypatch.setattr(ProductDomain, "validate_points", counted)
        assert dist.point_prob([[0, 1], [2, 2]]).shape == (2,)
        assert calls == [2]


class TestTotalCorrelation:
    def test_product_gives_zero(self):
        d = ProductDomain.of_sizes(2, 2)
        dist = ProductDistribution(d, [[0.3, 0.7], [0.4, 0.6]])
        assert total_correlation(dist.table()) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_gives_ln2(self):
        d = ProductDomain.of_sizes(2, 2)
        assert total_correlation(JointTable(d, [0.5, 0, 0, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_uniform_gives_zero(self):
        d = ProductDomain.of_sizes(2, 2)
        assert total_correlation(JointTable(d, [0.25] * 4)) == pytest.approx(0.0)

    def test_nonnegative_and_zero_iff_product(self):
        rng = np.random.default_rng(4)
        d = ProductDomain.of_sizes(3, 3)
        for _ in range(25):
            joint = JointTable(d, rng.dirichlet(np.ones(9)))
            tc = total_correlation(joint)
            assert tc >= 0.0
            gap = np.max(
                np.abs(joint.probs - box_projection(joint).table().probs)
            )
            if tc < 1e-12:
                assert gap < 1e-6
            if gap < 1e-15:
                assert tc < 1e-12


class TestModuli:
    def test_single_component_is_identity(self):
        for alpha in (0.1, 0.5, 1.0):
            assert mixture_modulus(1, 3, alpha) == alpha
            assert Modulus.identity()(alpha) == alpha

    def test_mixture_value(self):
        assert mixture_modulus(2, 2, 0.5) == pytest.approx(1 / 6, abs=1e-15)
        assert mixture_modulus(2, 3, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_tc_value(self):
        assert tc_modulus(0.0, 0.5) == pytest.approx(0.25, abs=1e-12)
        for c in (0.0, 0.7, 2.0):
            assert tc_modulus(c, 1.0) == pytest.approx(math.exp(-c), abs=1e-12)

    def test_tc_small_alpha_asymptote(self):
        alpha = 1e-4
        assert abs(tc_modulus(0.0, alpha) * math.e / alpha - 1) <= 0.01

    def test_alpha_domain_checked(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mixture_modulus(2, 2, bad)
            with pytest.raises(ValueError):
                tc_modulus(0.5, bad)
            with pytest.raises(ValueError):
                Modulus.identity()(bad)

    @pytest.mark.parametrize(
        "modulus",
        [
            Modulus.identity(),
            Modulus(2, 2),
            Modulus(3, 4),
            functools.partial(tc_modulus, 0.0),
            functools.partial(tc_modulus, 1.3),
        ],
    )
    def test_modulus_monotone_in_unit_range(self, modulus):
        grid = np.linspace(0.005, 1.0, 100)
        values = [modulus(float(a)) for a in grid]
        assert all(0 < b <= 1 for b in values)
        assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(values, values[1:]))

    def test_entropy_ratio_nonincreasing(self):
        # (H(x) + C)/x decreases, so the modulus is nondecreasing
        from gridest.info import binary_entropy

        for c in (0.0, 0.5, 2.0):
            grid = np.linspace(0.001, 1.0, 1000)
            phi = [(binary_entropy(float(x)) + c) / x for x in grid]
            assert all(a >= b - 1e-9 for a, b in zip(phi, phi[1:]))

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixture_modulus_monotone_pairs(self, a1, a2, k, d):
        lo, hi = sorted((a1, a2))
        assert mixture_modulus(k, d, lo) <= mixture_modulus(k, d, hi) + 1e-15


class TestTightnessInstance:
    def test_two_by_two(self):
        mix, event = mixture_tightness_instance(2, 2, 0.5)
        assert event_probability(mix, event) == pytest.approx(0.5, abs=1e-15)
        box = box_projection(mix)
        assert event_probability(box, event) == pytest.approx(0.25, abs=1e-15)

    def test_three_component_value(self):
        mix, event = mixture_tightness_instance(3, 2, 0.6)
        box = box_projection(mix)
        assert event_probability(box, event) == pytest.approx(0.18, abs=1e-12)

    def test_alpha_one_degenerates(self):
        mix, event = mixture_tightness_instance(2, 2, 1.0)
        assert mix.weights[-1] == 0.0
        assert event_probability(mix, event) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k,d,alpha", [(2, 2, 0.3), (3, 3, 0.7), (4, 2, 1.0)])
    def test_matches_modulus_denominator(self, k, d, alpha):
        mix, event = mixture_tightness_instance(k, d, alpha)
        box = box_projection(mix)
        want = alpha**d / (k - 1) ** (d - 1)
        assert event_probability(box, event) == pytest.approx(want, abs=1e-12)


class TestBiasedCube:
    def test_single_axis_marginal(self):
        (dist,) = biased_cube_family(1, 0.1, code=np.array([[1]]))
        assert np.allclose(dist.marginals[0], [0.4, 0.6])

    def test_mixed_signs(self):
        (dist,) = biased_cube_family(2, 0.2, code=np.array([[1, -1]]))
        assert np.allclose(dist.marginals[0], [0.3, 0.7])
        assert np.allclose(dist.marginals[1], [0.7, 0.3])

    def test_full_family_size(self):
        # distance 1 keeps all 8 sign patterns: one product per code row
        assert len(biased_cube_family(3, 0.1, gilbert_varshamov_code(3, 1))) == 8

    def test_bias_domain_checked(self):
        with pytest.raises(ValueError):
            biased_cube_family(4, 0.25, gilbert_varshamov_code(4, 1))

    def test_greedy_code_distance_and_rate(self):
        code = gilbert_varshamov_code(8, 2)
        diff = code[:, None, :] != code[None, :, :]
        dist = diff.sum(axis=2)
        off = ~np.eye(len(code), dtype=bool)
        assert np.all(dist[off] >= 2)
        # greedy meets the sphere-covering count: 2^8 / (1 + 8) rounded up
        assert len(code) >= 29
        assert code_rate(code) > 0.5

    def test_cap_names_d(self):
        # the check comes before any word is built
        with pytest.raises(CapExceededError, match=r"^d = 21 has 2\^21 sign vectors, "
                                                   r"cap 1048576$"):
            gilbert_varshamov_code(21, 3)

    def test_greedy_code_equals_the_stacking_loop(self):
        # the loop the buffered greedy replaced: every word checked against
        # all kept rows, lexicographic in code_bits order
        def stacking(d, min_distance):
            vectors = code_bits(np.arange(2**d, dtype=np.int64), d).astype(np.int8)
            kept = vectors[:1]
            for v in vectors[1:]:
                if np.sum(kept != v, axis=1).min() >= min_distance:
                    kept = np.vstack([kept, v])
            return (kept.astype(np.int64) * 2) - 1

        for d in range(1, 13):
            for min_distance in sorted({1, 2, max(1, d // 4), d // 2 + 1, d + 1}):
                code = gilbert_varshamov_code(d, min_distance)
                want = stacking(d, min_distance)
                assert code.dtype == want.dtype and np.array_equal(code, want)


@st.composite
def _small_distributions(draw):
    """A product, a mixture of products or a joint table on at most 12 points."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda s: math.prod(s) <= 12))
    domain = ProductDomain.of_sizes(*sizes)

    def pmf(n):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        if w.sum() == 0.0:
            w[0] = 1.0
        return w / w.sum()

    def product():
        return ProductDistribution(domain, [pmf(n) for n in sizes])

    kind = draw(st.sampled_from(["product", "mixture", "joint"]))
    if kind == "product":
        return product()
    if kind == "mixture":
        k = draw(st.integers(1, 3))
        return MixtureDistribution(pmf(k), [product() for _ in range(k)])
    return JointTable(domain, pmf(domain.n_points))


def _point_mass_mixture():
    """Three point masses on the diagonal of [3]^2, the middle one of weight 0."""
    domain = ProductDomain.of_sizes(3, 3)
    components = [ProductDistribution(domain, [one_hot] * 2) for one_hot in np.eye(3)]
    return MixtureDistribution([0.5, 0.0, 0.5], components)


def _sparse_joint():
    probs = np.random.default_rng(11).dirichlet(np.ones(24))
    probs[[0, 5, 6, 23]] = 0.0
    return JointTable(ProductDomain.of_sizes(2, 3, 4), probs / probs.sum())


SAMPLED = {
    "uniform-product": lambda: uniform_product(6),
    "ramp-product": lambda: ramp_product(7),
    "sparse-product": lambda: ProductDistribution(
        ProductDomain.of_sizes(4, 1, 3), [[0.0, 0.5, 0.0, 0.5], [1.0], [0.2, 0.0, 0.8]]),
    "two-component-mixture": lambda: two_component_mixture(6),
    "zero-weight-mixture": _point_mass_mixture,
    "sparse-joint": _sparse_joint,
    "uniform-joint": lambda: uniform_product(5).table(),
}


def _assert_counts_are_point_counts(dist, m, seed):
    """``sample_counts`` gives the cell counts of ``sample``'s points, bit for
    bit, and leaves its generator in the same state."""
    points_rng, counts_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = sample(dist, m, points_rng)
    assert points.dtype == np.int64 and points.shape == (m, dist.domain.width)
    want = dist.domain.cell_counts(points)
    got = sample_counts(dist, m, counts_rng)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert points_rng.bit_generator.state == counts_rng.bit_generator.state


class TestOneSampler:
    """``sample`` draws every kind of distribution through its joint table's
    kept alias table; ``sample_counts`` counts the same cells up to
    ``ALIAS_POINTS_PER_CELL`` points per cell."""

    @pytest.mark.parametrize("per_cell", [None, 1, ALIAS_POINTS_PER_CELL],
                             ids=["m-5", "m-cells", "m-crossover"])
    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_counts_are_the_points_counts(self, name, per_cell):
        dist = SAMPLED[name]()
        m = 5 if per_cell is None else per_cell * dist.domain.n_points
        for seed in range(10):
            _assert_counts_are_point_counts(dist, m, seed)
            # an int seed builds the generator anew; a seed sequence too
            want = sample(dist, m, np.random.default_rng(seed))
            assert sample(dist, m, seed).tobytes() == want.tobytes()
            sequence = np.random.SeedSequence([seed, m])
            assert (sample(dist, m, sequence).tobytes()
                    == sample(dist, m, np.random.default_rng(sequence)).tobytes())

    @given(_small_distributions(), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_any_small_distribution(self, dist, data, seed):
        m = data.draw(st.integers(1, ALIAS_POINTS_PER_CELL * dist.domain.n_points))
        _assert_counts_are_point_counts(dist, m, seed)

    def test_a_zero_weight_component_draws_no_points(self):
        dist = _point_mass_mixture()
        for seed in range(20):
            points = sample(dist, 874, seed)
            assert not np.any(np.all(points == 1, axis=1))
            assert set(np.unique(points).tolist()) == {0, 2}

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_the_kept_alias_table_is_read_only_and_built_once(self, name, monkeypatch):
        built = []

        def spy(p):
            built.append(p.size)
            return alias_table(p)

        alias_table = distributions_module._alias_table
        monkeypatch.setattr(distributions_module, "_alias_table", spy)
        dist = SAMPLED[name]()
        table = dist.table()
        for draw in (sample, sample_counts, sample, sample_counts):
            draw(dist, 5, 0)
        assert built == [dist.domain.n_points]
        assert dist.table() is table
        kept = table.alias
        assert table.alias is kept
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestExhaustiveEvents:
    def test_matches_manual_subset_sums(self):
        d = ProductDomain.of_sizes(2)
        dist = ProductDistribution(d, [[0.25, 0.75]])
        probs = exhaustive_event_probabilities(dist)
        assert probs.tolist() == [0.0, 0.25, 0.75, 1.0]

    @given(_small_distributions())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_bit_matrix_oracle(self, dist):
        n = dist.domain.n_points
        probs = dist.table().probs
        table = exhaustive_event_probabilities(dist)
        want = bit_matrix_event_probabilities(dist)
        assert table.shape == want.shape == (2**n,)
        assert np.max(np.abs(table - want)) <= n * 2.0**-52
        # the empty event and the singletons are exact
        assert table[0] == 0.0
        assert all(table[1 << j] == probs[j] for j in range(n))

    def test_cap_names_the_point_count(self):
        dist = ProductDistribution(ProductDomain.of_sizes(3, 7), [np.ones(3) / 3,
                                                                  np.ones(7) / 7])
        with pytest.raises(CapExceededError, match=r"21 points have 2\^21 events, "
                                                   r"cap 1048576"):
            exhaustive_event_probabilities(dist)


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=8),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)


def _leaves(value):
    if isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _leaves(item)
    else:
        yield value


def _distribution_documents():
    """Documents shaped like the three kinds, with arbitrary JSON in the fields."""
    vector = st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.lists(st.sampled_from([0.5, 1.0, 1e308, -0.5, math.inf, math.nan]),
                 max_size=8),
        # numbers in disguise: a probability that loads from them is a bug
        st.lists(st.sampled_from([0.5, 1, "0.5", "1", True, False]),
                 min_size=1, max_size=4),
        _JSON,
    )
    axes = st.one_of(st.lists(vector, max_size=4), _JSON)
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("product"), "axes": axes}),
        st.fixed_dictionaries({"kind": st.just("mixture"), "weights": vector,
                               "components": st.one_of(st.lists(axes, max_size=3),
                                                       _JSON)}),
        st.fixed_dictionaries({
            "kind": st.just("joint"),
            "sizes": st.one_of(st.lists(st.integers(-2, 10**6), max_size=8), _JSON),
            "table": vector,
        }),
    )


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        d = ProductDomain.of_sizes(2, 2)
        mix = MixtureDistribution(
            [0.25, 0.75],
            [
                ProductDistribution(d, [[0.5, 0.5], [0.1, 0.9]]),
                ProductDistribution(d, [[1.0, 0.0], [0.0, 1.0]]),
            ],
        )
        path = tmp_path / "dist.json"
        dump_distribution(mix, path)
        loaded = load_distribution(path)
        assert isinstance(loaded, MixtureDistribution)
        assert np.allclose(loaded.table().probs, mix.table().probs, atol=1e-12)

    def test_product_round_trip(self, tmp_path):
        d = ProductDomain.of_sizes(3, 2, 4)
        rng = np.random.default_rng(6)
        product = ProductDistribution(d, [rng.dirichlet(np.ones(n)) for n in d.sizes])
        path = tmp_path / "product.json"
        dump_distribution(product, path)
        assert json.loads(path.read_text())["kind"] == "product"
        loaded = load_distribution(path)
        assert isinstance(loaded, ProductDistribution) and loaded.domain == d
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(loaded.marginals, product.marginals, strict=True))

    def test_joint_round_trip(self, tmp_path):
        d = ProductDomain.of_sizes(2, 2)
        joint = JointTable(d, [0.5, 0.0, 0.0, 0.5])
        path = tmp_path / "joint.json"
        dump_distribution(joint, path)
        loaded = load_distribution(path)
        assert np.allclose(loaded.probs, joint.probs)

    def test_small_discrepancy_renormalized_with_warning(self):
        probs = [0.5, 0.5 + 3e-8]
        with pytest.warns(UserWarning, match="renormalizing"):
            dist = distribution_from_dict({"kind": "product", "axes": [probs]})
        assert np.isclose(dist.marginals[0].sum(), 1.0, atol=1e-15)

    def test_large_discrepancy_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            distribution_from_dict({"kind": "product", "axes": [[0.5, 0.6]]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            distribution_from_dict({"kind": "copula"})

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[0.5, 0.5]\n")
        with pytest.raises(ValueError, match="JSON object with a 'kind' field"):
            load_distribution(path)

    @pytest.mark.parametrize("data, field", [
        ({"kind": "product"}, "axes"),
        ({"kind": "mixture", "components": [[[1.0]]]}, "weights"),
        ({"kind": "mixture", "weights": [1.0]}, "components"),
        ({"kind": "joint", "table": [1.0]}, "sizes"),
        ({"kind": "joint", "sizes": [1]}, "table"),
    ])
    def test_missing_field_is_named(self, data, field):
        with pytest.raises(ValueError, match=f"{data['kind']} distribution: "
                                             f"missing field '{field}'"):
            distribution_from_dict(data)

    @pytest.mark.parametrize("data, field", [
        ({"kind": "product", "axes": 5}, "field 'axes' must be a list"),
        ({"kind": "mixture", "weights": [1.0], "components": 5},
         "field 'components' must be a list"),
        ({"kind": "joint", "sizes": 5, "table": [1.0]}, "field 'sizes' must be"),
        *(({"kind": "joint", "sizes": sizes, "table": [1.0]},
           "^joint distribution: field 'sizes' must be a non-empty list of "
           "positive integers$") for sizes in ([], [True], [2, 0], [1.0])),
        ({"kind": "product", "axes": [{"a": 1}]}, "axis 0: must be a list"),
        ({"kind": "joint", "sizes": [1], "table": {"a": 1}}, "table: must be a list"),
        ({"kind": "product", "axes": [["0.5", "0.5"]]}, "axis 0: must be a list"),
        ({"kind": "product", "axes": [[True, False]]}, "axis 0: must be a list"),
        ({"kind": "product", "axes": [[-0.5, 1.5]]},
         "^axis 0: negative probabilities$"),
        ({"kind": "product", "axes": []}, "field 'axes' must not be empty"),
        ({"kind": "mixture", "weights": [1.0], "components": [[]]},
         "field 'components' must be a non-empty list of non-empty axis lists"),
    ])
    def test_wrong_field_type_is_named(self, data, field):
        with pytest.raises(ValueError, match=field):
            distribution_from_dict(data)

    def test_overflowing_sum_rejected_without_warning(self):
        # Tier-1 turns RuntimeWarning into an error
        with pytest.raises(ValueError, match="axis 0: probabilities sum to inf"):
            distribution_from_dict({"kind": "product", "axes": [[1e308, 1e308]]})

    @pytest.mark.parametrize("text, field", [
        ('{"kind": "product", "axes": [[NaN, 1.0]]}', "axis 0"),
        ('{"kind": "mixture", "weights": [NaN, 1.0], '
         '"components": [[[1.0]], [[1.0]]]}', "weights"),
        ('{"kind": "joint", "sizes": [2], "table": [1.0, NaN]}', "table"),
    ], ids=["product", "mixture", "joint"])
    def test_non_finite_entry_is_named(self, text, field):
        # JSON's NaN passes a sign check and a sum check
        with pytest.raises(ValueError, match=f"^{field}: non-finite probabilities"):
            distribution_from_dict(json.loads(text))

    def test_joint_table_size_checked_before_the_domain(self, monkeypatch):
        def never(*sizes):
            raise AssertionError("built a domain for a table of the wrong size")

        monkeypatch.setattr(ProductDomain, "of_sizes", never)
        with pytest.raises(ValueError, match="table has 1 entries"):
            distribution_from_dict(
                {"kind": "joint", "sizes": [2_000_000], "table": [1.0]}
            )

    @given(st.one_of(_JSON, _distribution_documents()))
    @settings(max_examples=200, deadline=None)
    def test_any_document_loads_or_raises_value_error(self, data):
        try:
            dist = distribution_from_dict(data)
        except ValueError:
            return
        assert dist.table().probs.sum() == pytest.approx(1.0)
        # only JSON numbers load: no string or boolean in a field the kind reads
        fields = [data[k] for k in ("axes", "weights", "components", "sizes", "table")
                  if k in data]
        assert all(type(x) in (int, float) for x in _leaves(fields))


D22 = ProductDomain.of_sizes(2, 2)
HALF = [0.5, 0.5]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ProductDistribution(D22, [HALF]), ValueError,
                 "marginal count != domain width", id="product-width"),
    pytest.param(lambda: ProductDistribution(D22, [HALF, [1.0]]), ValueError,
                 "marginal 1 length != axis size", id="product-axis"),
    pytest.param(lambda: MixtureDistribution(HALF, [ProductDistribution(D22, [HALF] * 2)]),
                 ValueError, "weight count != component count", id="mixture-weights"),
    pytest.param(lambda: MixtureDistribution(HALF, [
        ProductDistribution(D22, [HALF] * 2),
        ProductDistribution(ProductDomain.of_sizes(2, 1), [HALF, [1.0]])]),
        ValueError, "components live on different domains", id="mixture-domains"),
    pytest.param(lambda: JointTable(D22, [1.0]), ValueError,
                 "table size != number of domain points", id="joint-size"),
    pytest.param(lambda: mixture_modulus(0, 2, 0.5), ValueError,
                 "need k >= 1 and d >= 1", id="mixture-modulus-k"),
    pytest.param(lambda: mixture_modulus(2, 0, 0.5), ValueError,
                 "need k >= 1 and d >= 1", id="mixture-modulus-d"),
    pytest.param(lambda: tc_modulus(-0.1, 0.5), ValueError,
                 "total-correlation bound must be nonnegative", id="tc-modulus"),
    pytest.param(lambda: mixture_tightness_instance(1, 2, 0.5), ValueError,
                 "need k >= 2 and d >= 2", id="tightness-k"),
    pytest.param(lambda: mixture_tightness_instance(2, 1, 0.5), ValueError,
                 "need k >= 2 and d >= 2", id="tightness-d"),
    pytest.param(lambda: mixture_tightness_instance(2, 2, 0.0), ValueError,
                 "alpha must lie in (0, 1]", id="tightness-alpha"),
    pytest.param(lambda: gilbert_varshamov_code(0, 1), ValueError,
                 "need d >= 1 and min_distance >= 1", id="code-d"),
    pytest.param(lambda: gilbert_varshamov_code(3, 0), ValueError,
                 "need d >= 1 and min_distance >= 1", id="code-distance"),
    pytest.param(lambda: biased_cube_family(2, 0.1, np.ones((3, 3))), ValueError,
                 "code must be an (M, d) sign matrix", id="cube-code-shape"),
    pytest.param(lambda: biased_cube_family(2, 0.1, [[1, 0]]), ValueError,
                 "code entries must be +-1", id="cube-code-signs"),
    pytest.param(lambda: sample(SimpleNamespace(domain=D22), 1, 0), TypeError,
                 "cannot sample from SimpleNamespace", id="sample-type"),
    *(pytest.param(lambda draw=draw, m=m: draw(uniform_product(2), m, 0), ValueError,
                   f"m must be an integer >= 1, got {m!r}", id=f"{draw.__name__}-m-{m!r}")
      for draw in (sample, sample_counts, marginal_counts)
      for m in (0, -3, 2.5, True, np.bool_(True), "4", None)),
    pytest.param(lambda: distribution_to_dict(SimpleNamespace(domain=D22)), TypeError,
                 "cannot serialize SimpleNamespace", id="serialize-type"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
