"""Distributions: sampling, box projection, total correlation, moduli."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.distributions import (
    GaussianSpec,
    JointTable,
    MixtureDistribution,
    Modulus,
    ProductDistribution,
    biased_cube_family,
    box_projection,
    code_rate,
    distribution_from_dict,
    dump_distribution,
    event_probability,
    exhaustive_event_probabilities,
    gaussian_total_correlation,
    gilbert_varshamov_code,
    load_distribution,
    marginal_counts,
    mixture_modulus,
    mixture_tightness_instance,
    sample,
    sample_counts,
    tc_modulus,
    total_correlation,
)
from gridest.domain import ProductDomain
from gridest.experiments import ramp_product, two_component_mixture
from gridest.families import perm_graph_bits


def uniform_product(n):
    d = ProductDomain.of_sizes(n, n)
    u = np.full(n, 1.0 / n)
    return ProductDistribution(d, [u, u])


class TestConstruction:
    def test_marginal_must_normalize(self):
        d = ProductDomain.of_sizes(2)
        with pytest.raises(ValueError):
            ProductDistribution(d, [[0.5, 0.6]])

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

    def test_zero_probability_cells_stay_empty(self):
        d = ProductDomain.of_sizes(2, 2)
        joint = JointTable(d, [0.5, 0.0, 0.0, 0.5])
        counts = sample_counts(joint, 100, seed=1)
        assert counts[0, 1] == counts[1, 0] == 0

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_counts(uniform_product(2), 0, seed=0)

    def test_first_moments_match_m_times_p(self):
        # E[counts] = m p exactly; the mean of R draws sits within 5 sigma
        dist = two_component_mixture(3)
        p = dist.table().reshaped()
        m, draws = 30, 4000
        rng = np.random.default_rng(11)
        mean = np.mean([sample_counts(dist, m, rng) for _ in range(draws)], axis=0)
        sigma = np.sqrt(m * p * (1 - p) / draws)
        assert np.all(np.abs(mean - m * p) <= 5 * sigma)

    def test_agrees_in_distribution_with_point_sampling(self):
        # chi-square homogeneity between the count draw and counted points:
        # on the pooled cell totals, and on the number of occupied cells per
        # draw (a statistic of the joint law, not only of the means)
        from scipy.stats import chi2_contingency

        dist = two_component_mixture(3)
        m, draws = 8, 3000
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
        dist = two_component_mixture(4)
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


class TestGaussianTotalCorrelation:
    def test_diagonal_covariance_gives_zero(self):
        spec = GaussianSpec(sigma=np.diag([2.0, 3.0, 1.5]))
        assert gaussian_total_correlation(spec) == pytest.approx(0.0, abs=1e-12)

    def test_bivariate_closed_form(self):
        assert gaussian_total_correlation(GaussianSpec(rho=0.6)) == pytest.approx(
            0.22314355131420976, abs=1e-10
        )

    def test_paths_agree(self):
        rho = 0.35
        spec = GaussianSpec(sigma=np.array([[1, rho], [rho, 1]]), rho=rho)
        direct = 0.5 * math.log(1 / (1 - rho**2))
        assert gaussian_total_correlation(spec) == pytest.approx(direct, abs=1e-10)

    def test_diverges_toward_perfect_correlation(self):
        tc = gaussian_total_correlation
        assert tc(GaussianSpec(rho=0.99)) > tc(GaussianSpec(rho=0.9))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            gaussian_total_correlation(GaussianSpec(sigma=np.array([[1, 2], [2, 1]])))


class TestModuli:
    def test_single_component_is_identity(self):
        for alpha in (0.1, 0.5, 1.0):
            assert mixture_modulus(1, 3, alpha) == alpha

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

    @pytest.mark.parametrize(
        "modulus",
        [
            Modulus.identity(),
            Modulus.for_mixture(2, 2),
            Modulus.for_mixture(3, 4),
            Modulus.for_total_correlation(0.0),
            Modulus.for_total_correlation(1.3),
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

    def test_table_modulus(self):
        mod = Modulus.from_table([0.1, 0.5], [0.01, 0.2])
        assert mod(0.3) == 0.01
        assert mod(0.9) == 0.2
        with pytest.raises(ValueError):
            mod(0.05)

    def test_table_modulus_equality_and_hash(self):
        mod = Modulus.from_table([0.1, 0.5], [0.01, 0.2])
        same = Modulus.from_table(np.array([0.1, 0.5]), (0.01, 0.2))
        assert mod == same and hash(mod) == hash(same)
        assert mod != Modulus.from_table([0.1, 0.5], [0.01, 0.3])
        assert len({mod, same}) == 1

    def test_table_modulus_needs_one_beta_per_knot(self):
        with pytest.raises(ValueError, match="one beta per"):
            Modulus.from_table([0.1, 0.5], [0.2])

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
        assert len(biased_cube_family(3, 0.1)) == 8

    def test_bias_domain_checked(self):
        with pytest.raises(ValueError):
            biased_cube_family(4, 0.25)

    def test_greedy_code_distance_and_rate(self):
        code = gilbert_varshamov_code(8, 2)
        diff = code[:, None, :] != code[None, :, :]
        dist = diff.sum(axis=2)
        off = ~np.eye(len(code), dtype=bool)
        assert np.all(dist[off] >= 2)
        # greedy meets the sphere-covering count: 2^8 / (1 + 8) rounded up
        assert len(code) >= 29
        assert code_rate(code) > 0.5


class TestExhaustiveEvents:
    def test_matches_manual_subset_sums(self):
        d = ProductDomain.of_sizes(2)
        dist = ProductDistribution(d, [[0.25, 0.75]])
        probs = exhaustive_event_probabilities(dist)
        assert probs.tolist() == [0.0, 0.25, 0.75, 1.0]


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
