"""Dimensions, trace counts, counting bounds, and small enumerations."""

import itertools
import math

import numpy as np
import pytest

from gridest.combinatorics import (
    aggregation_eta,
    aggregation_vc_bound,
    binomle,
    binomle_upper,
    count_traces,
    enumerate_hd_permutations,
    grid_ssp_bound,
    grid_ssp_bound_maxside,
    grid_ssp_rate,
    linear_vc_dimension,
    random_explicit_family,
    shatters,
    union_family_lower_check,
    vc_dimension,
)
from gridest.domain import CapExceededError, Grid, ProductDomain, enumerate_axis_lines
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    IntervalsOnAxis,
    OracleFamily,
    PermutationGraphs,
    PowerSetFamily,
    UnionsOfPermutations,
    symdiff_family,
    trace_of,
)


def singletons(n):
    return ExplicitFamily(ProductDomain.of_sizes(n), np.eye(n, dtype=bool))


class TestShatters:
    def test_empty_set_always_shattered(self):
        assert shatters(singletons(3), [])

    def test_power_set_shatters_everything(self):
        fam = PowerSetFamily(ProductDomain.of_sizes(3))
        assert shatters(fam, [(0,), (1,), (2,)])

    def test_intervals_cannot_realize_101(self):
        fam = IntervalsOnAxis(ProductDomain.of_sizes(3))
        assert shatters(fam, [(0,), (1,)])
        assert not shatters(fam, [(0,), (1,), (2,)])

    def test_cap(self):
        with pytest.raises(CapExceededError):
            shatters(singletons(3), [(0,)] * 21)


class TestVcDimension:
    def test_intervals_on_four_points(self):
        cert = vc_dimension(IntervalsOnAxis(ProductDomain.of_sizes(4)))
        assert cert.dimension == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_power_set(self, k):
        cert = vc_dimension(PowerSetFamily(ProductDomain.of_sizes(k)))
        assert cert.dimension == k

    def test_singletons(self):
        assert vc_dimension(singletons(4)).dimension == 1

    def test_witness_reverifies(self):
        fam = IntervalsOnAxis(ProductDomain.of_sizes(5))
        cert = vc_dimension(fam)
        assert shatters(fam, cert.witness)

    def test_no_larger_set_shattered(self):
        fam = IntervalsOnAxis(ProductDomain.of_sizes(5))
        cert = vc_dimension(fam)
        pts = [(i,) for i in range(5)]
        for combo in itertools.combinations(pts, cert.dimension + 1):
            assert not shatters(fam, list(combo))

    def test_domain_cap(self):
        with pytest.raises(CapExceededError):
            vc_dimension(PowerSetFamily(ProductDomain.of_sizes(17)))


class TestLinearVcDimension:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_permutation_graphs(self, n):
        assert linear_vc_dimension(PermutationGraphs(n)).dimension == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_power_set_on_cube(self, d):
        fam = PowerSetFamily(ProductDomain.of_sizes(*([2] * d)))
        assert linear_vc_dimension(fam).dimension == 2

    def test_union_family(self):
        assert linear_vc_dimension(UnionsOfPermutations(4, 2)).dimension == 2

    def test_certificate_is_colinear_and_shattered(self):
        fam = UnionsOfPermutations(4, 2)
        cert = linear_vc_dimension(fam)
        assert cert.line is not None
        witness = np.array(cert.witness)
        fixed_axes = [j for j in range(2) if j != cert.line.axis]
        for j in fixed_axes:
            assert np.unique(witness[:, j]).size == 1
        assert shatters(fam.materialize(), cert.witness)

    def test_cylinder_sets(self):
        from gridest.families import CylinderSets

        fam = CylinderSets(3, 2)
        assert linear_vc_dimension(fam).dimension == 2
        assert fam.structural_lvc() == 2

    def test_structural_hints_match_brute_force(self):
        fams = [
            PermutationGraphs(4),
            UnionsOfPermutations(4, 2),
            IntervalsOnAxis(ProductDomain.of_sizes(4, 3)),
            PowerSetFamily(ProductDomain.of_sizes(2, 2)),
        ]
        for fam in fams:
            assert linear_vc_dimension(fam).dimension == fam.structural_lvc()

    def test_never_exceeds_vc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = ProductDomain.of_sizes(3, 3)
            fam = random_explicit_family(d, int(rng.integers(2, 9)), rng)
            assert (
                linear_vc_dimension(fam).dimension <= vc_dimension(fam).dimension
            )


class TestCountTraces:
    def test_two_permutations(self):
        fam = PermutationGraphs(2)
        assert count_traces(fam, fam.domain.full_grid()) == 2

    def test_empty_grid_single_trace(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = PermutationGraphs(2)
        empty = Grid(d, [np.array([], dtype=np.int64), np.array([0])])
        assert count_traces(fam, empty) == 1

    def test_empty_grid_single_box_trace(self):
        d = ProductDomain.of_sizes(3, 3)
        empty = Grid(d, [np.array([], dtype=np.int64), np.array([0])])
        assert count_traces(AxisBoxes(d), empty) == 1

    def test_trace_enumerator_yields_trace_bytes(self):
        d = ProductDomain.of_sizes(3, 3)
        boxes = AxisBoxes(d)
        grid = Grid(d, [np.array([0, 2]), np.array([1])])
        fam = OracleFamily(
            d, membership=lambda key, pts: pts[:, 0] == key,
            trace_enumerator=lambda g: (
                trace_of(row, g) for row in boxes.members_matrix()
            ),
        )
        assert count_traces(fam, grid) == count_traces(boxes, grid) == 4

    def test_six_permutations_all_distinct(self):
        fam = PermutationGraphs(3)
        assert count_traces(fam, fam.domain.full_grid()) == 6

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_structured_count_matches_enumeration(self, n):
        fam = PermutationGraphs(n)
        grid = fam.domain.full_grid()
        assert count_traces(fam, grid) == count_traces(fam.materialize(), grid)

    def test_partial_grid_merges_classes(self):
        fam = PermutationGraphs(3)
        grid = Grid(fam.domain, [np.array([0]), np.array([0, 1, 2])])
        # only the value of pi(0) is visible
        assert count_traces(fam, grid) == 3


class TestBinomialTail:
    def test_small_values(self):
        assert binomle(2, 1) == 3
        assert binomle(4, 2) == 11

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_saturates_at_two_power(self, n):
        assert binomle(n, n) == 2**n
        assert binomle(n, n + 5) == 2**n

    def test_upper_bound_value(self):
        assert binomle_upper(4, 2) == pytest.approx((2 * math.e) ** 2, abs=1e-12)
        assert binomle_upper(4, 2) >= binomle(4, 2)

    def test_upper_bound_dominates_everywhere(self):
        for n in range(1, 16):
            for g in range(1, n + 1):
                assert binomle(n, g) <= binomle_upper(n, g)


class TestGridSspBound:
    def test_two_by_two(self):
        assert grid_ssp_bound((2, 2), 1, 0) == 9

    def test_three_by_three_dominates_permutations(self):
        # binomle(3,1) = 1 + 3, raised to the 3 lines of the other axis
        bound = grid_ssp_bound((3, 3), 1, 0)
        assert bound == 4**3
        fam = PermutationGraphs(3)
        assert count_traces(fam, fam.domain.full_grid()) <= bound

    def test_vacuous_when_g_saturates(self):
        sizes = (3, 2)
        assert grid_ssp_bound(sizes, 3, 0) == (2**3) ** 2 == 2 ** (3 * 2)

    def test_maxside_picks_largest_axis(self):
        bound, axis = grid_ssp_bound_maxside((2, 5, 3), 1)
        assert axis == 1
        assert bound == binomle(5, 1) ** 6

    def test_exact_big_integers(self):
        bound = grid_ssp_bound((30, 30), 1, 0)
        assert bound == 31**30


class TestGridSspRate:
    def test_g_equals_n(self):
        n, d = 4, 3
        assert grid_ssp_rate(n, d, n) == pytest.approx(
            n**d * math.log2(math.e), abs=1e-12
        )

    def test_dominates_exact_log(self):
        bound = grid_ssp_bound((4, 4), 1, 0)
        assert math.log2(bound) <= grid_ssp_rate(4, 2, 1)

    def test_dominates_exact_log_broadly(self):
        for n in (2, 3, 4, 5):
            for d in (2, 3):
                for g in range(1, n + 1):
                    exact = math.log2(grid_ssp_bound((n,) * d, g, 0))
                    assert exact <= grid_ssp_rate(n, d, g) + 1e-9

    def test_linear_in_g_up_to_log(self):
        n, d = 8, 2
        for g in range(1, n + 1):
            rate = grid_ssp_rate(n, d, g)
            assert rate <= g * grid_ssp_rate(n, d, 1) + 1e-9
            assert rate >= g * n ** (d - 1) * math.log2(math.e) - 1e-9

    def test_inapplicable_when_g_exceeds_n(self):
        with pytest.raises(ValueError, match="inapplicable"):
            grid_ssp_rate(3, 2, 4)


class TestAggregation:
    def test_pairwise_constant_interval(self):
        two_c2 = 1.0 / aggregation_eta(2)
        assert 16 < two_c2 < 17
        assert two_c2 <= 20

    def test_eta_solves_the_entropy_equation(self):
        eta = aggregation_eta(2)
        h2 = -(eta * math.log2(eta) + (1 - eta) * math.log2(1 - eta))
        assert abs(h2 - 1 / 3) <= 1e-12

    def test_zero_dimensions(self):
        assert aggregation_vc_bound(2, 0, 0) == 0.0

    @pytest.mark.parametrize("v", range(1, 11))
    def test_symdiff_bound_below_twenty(self, v):
        assert aggregation_vc_bound(2, v, 0) <= 20 * v


class TestHdPermutations:
    def test_two_dimensional_counts(self):
        assert enumerate_hd_permutations(3, 2).member_count() == 6

    def test_two_dimensional_rows_are_the_permutation_matrices_in_order(self):
        fam = enumerate_hd_permutations(4, 2)
        want = np.zeros((24, 16), dtype=bool)
        for k, perm in enumerate(itertools.permutations(range(4))):
            for i in range(4):
                want[k, 4 * i + perm[i]] = True
        assert np.array_equal(fam.members_matrix(), want)

    def test_order_two_latin_squares(self):
        assert enumerate_hd_permutations(2, 3).member_count() == 2

    def test_order_three_latin_squares(self):
        assert enumerate_hd_permutations(3, 3).member_count() == 12

    def test_every_line_hit_exactly_once(self):
        fam = enumerate_hd_permutations(3, 3)
        members = fam.members_matrix()
        for axis in range(3):
            for line in enumerate_axis_lines(fam.domain, axis):
                flat = fam.domain.flat_index(line.points(fam.domain))
                assert np.all(members[:, flat].sum(axis=1) == 1)

    def test_caps(self):
        with pytest.raises(CapExceededError):
            enumerate_hd_permutations(7, 2)
        with pytest.raises(CapExceededError):
            enumerate_hd_permutations(3, 4)


class TestUnionLowerCheck:
    def test_four_two_two(self):
        exact, bound = union_family_lower_check(4, 2, 2)
        assert bound == pytest.approx(2.25)
        assert exact >= 3
        assert exact == 283  # regression: 1 empty + 24 singles + 258 pair unions

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_union_count(self, n):
        exact, bound = union_family_lower_check(n, 2, 1)
        assert exact == math.factorial(n) + 1
        assert bound == pytest.approx(math.factorial(n))

    def test_two_by_two(self):
        # |F|^g / g^(g n^(d-1)) = 2^2 / 2^4
        exact, bound = union_family_lower_check(2, 2, 2)
        assert bound == pytest.approx(0.25)
        assert exact >= 1


class TestRandomFamilyInvariants:
    def test_classical_ssp_on_single_axis_domains(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            domain = ProductDomain.of_sizes(n)
            fam = random_explicit_family(domain, int(rng.integers(1, 17)), rng)
            traces = count_traces(fam, domain.full_grid())
            assert traces <= binomle(n, vc_dimension(fam).dimension)

    def test_grid_ssp_never_violated(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            sizes = rng.integers(2, 5, size=d)
            domain = ProductDomain.of_sizes(*sizes)
            fam = random_explicit_family(domain, int(rng.integers(2, 13)), rng)
            g = max(linear_vc_dimension(fam).dimension, 1)
            bound, _ = grid_ssp_bound_maxside(domain.sizes, g)
            assert count_traces(fam, domain.full_grid()) <= bound

    def test_symdiff_dimension_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            fam = random_explicit_family(
                ProductDomain.of_sizes(n), int(rng.integers(2, 9)), rng
            )
            assert (
                vc_dimension(symdiff_family(fam)).dimension
                <= 20 * vc_dimension(fam).dimension
            )
