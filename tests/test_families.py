"""Set-family representations, built-ins, restrictions, and the text format."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.domain import CapExceededError, NotEnumerableError, ProductDomain
from gridest.families import (
    AxisBoxes,
    CylinderSets,
    ExplicitFamily,
    IntervalsOnAxis,
    OracleFamily,
    PermutationGraphs,
    PowerSetFamily,
    UnionsOfPermutations,
    dump_family,
    load_family,
    symdiff_family,
)
from gridest.domain import enumerate_axis_lines


def family_as_set(explicit):
    return {np.packbits(row).tobytes() for row in explicit.members_matrix()}


class TestExplicitFamily:
    def test_dedup(self):
        d = ProductDomain.of_sizes(2)
        fam = ExplicitFamily(d, [[1, 0], [1, 0], [0, 1]])
        assert fam.member_count() == 2

    def test_empty_family_rejected(self):
        d = ProductDomain.of_sizes(2)
        with pytest.raises(ValueError, match="empty family"):
            ExplicitFamily(d, np.empty((0, 2), dtype=bool))

    def test_wrong_member_length_rejected(self):
        d = ProductDomain.of_sizes(3)
        with pytest.raises(ValueError, match="member length"):
            ExplicitFamily(d, [[1, 0]])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_dedup_keeps_first_occurrences_in_order(self, seed, k, n):
        rng = np.random.default_rng(seed)
        rows = rng.random((k, n)) < rng.uniform(0.05, 0.95)
        rows = np.vstack([rows, rows[rng.integers(0, k, size=k // 2)]])
        rows = rows[rng.permutation(len(rows))]
        seen, keep = set(), []
        for i, row in enumerate(rows):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                keep.append(i)
        fam = ExplicitFamily(ProductDomain.of_sizes(n), rows)
        assert np.array_equal(fam.members_matrix(), rows[keep])

    def test_empty_and_full_are_valid_members(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = ExplicitFamily(d, [np.zeros(4, bool), np.ones(4, bool)])
        assert fam.member_count() == 2


class TestBuiltinStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_permutation_graphs_meet_every_line_once(self, n):
        fam = PermutationGraphs(n)
        members = fam.members_matrix()
        for axis in range(2):
            for line in enumerate_axis_lines(fam.domain, axis):
                flat = fam.domain.flat_index(line.points(fam.domain))
                assert np.all(members[:, flat].sum(axis=1) == 1)

    @pytest.mark.parametrize("g", [1, 2])
    def test_union_family_line_bound(self, g):
        fam = UnionsOfPermutations(4, g)
        members = fam.members_matrix()
        for axis in range(2):
            for line in enumerate_axis_lines(fam.domain, axis):
                flat = fam.domain.flat_index(line.points(fam.domain))
                assert np.all(members[:, flat].sum(axis=1) <= g)

    def test_union_family_contains_empty_set(self):
        fam = UnionsOfPermutations(3, 1)
        assert np.packbits(np.zeros(9, bool)).tobytes() in family_as_set(fam)

    def test_permutation_count(self):
        assert PermutationGraphs(4).member_count() == 24
        assert PermutationGraphs(4).members_matrix().shape == (24, 16)

    @pytest.mark.parametrize("sizes", [(1,), (4,), (3, 4), (2, 3, 2), (1, 3, 1)])
    def test_axis_boxes_match_direct_construction(self, sizes):
        d = ProductDomain.of_sizes(*sizes)
        pts = d.all_points()
        rows = [np.zeros(d.n_points, dtype=bool)]
        intervals = [[(a, b) for a in range(n) for b in range(a, n)] for n in sizes]
        for box in itertools.product(*intervals):
            inside = np.ones(d.n_points, dtype=bool)
            for i, (a, b) in enumerate(box):
                inside &= (pts[:, i] >= a) & (pts[:, i] <= b)
            rows.append(inside)
        fam = AxisBoxes(d)
        members = fam.members_matrix()
        assert np.array_equal(members, np.array(rows))
        assert members.shape[0] == fam.member_count()

    def test_oversized_builtin_raises(self):
        with pytest.raises(CapExceededError, match="family too large"):
            PermutationGraphs(20).members_matrix()


class TestRestrictions:
    def test_permutation_graphs_restrict_to_singletons(self):
        fam = PermutationGraphs(3)
        line = enumerate_axis_lines(fam.domain, 1)[0]
        restriction = fam.restrict_to_line(line)
        assert family_as_set(restriction) == family_as_set(
            ExplicitFamily(ProductDomain.of_sizes(3), np.eye(3, dtype=bool))
        )

    def test_structured_restriction_matches_enumeration(self):
        # dual route: the structural shortcut must agree with brute force
        fam = PermutationGraphs(4)
        explicit = fam.materialize()
        for axis in range(2):
            line = enumerate_axis_lines(fam.domain, axis)[1]
            assert family_as_set(fam.restrict_to_line(line)) == family_as_set(
                explicit.restrict_to_line(line)
            )

    def test_union_restriction_matches_enumeration(self):
        fam = UnionsOfPermutations(4, 2)
        explicit = fam.materialize()
        line = enumerate_axis_lines(fam.domain, 0)[2]
        assert family_as_set(fam.restrict_to_line(line)) == family_as_set(
            explicit.restrict_to_line(line)
        )

    def test_power_set_on_cube_line_is_full_power_set(self):
        fam = PowerSetFamily(ProductDomain.of_sizes(2, 2, 2))
        line = enumerate_axis_lines(fam.domain, 1)[0]
        assert fam.restrict_to_line(line).member_count() == 4

    def test_intervals_on_four_point_line(self):
        # 10 nonempty sub-intervals plus the empty set
        fam = IntervalsOnAxis(ProductDomain.of_sizes(4))
        line = enumerate_axis_lines(fam.domain, 0)[0]
        assert fam.restrict_to_line(line).member_count() == 11

    def test_intervals_off_axis_restriction(self):
        fam = IntervalsOnAxis(ProductDomain.of_sizes(3, 3), axis=0)
        line = enumerate_axis_lines(fam.domain, 1)[0]
        assert fam.restrict_to_line(line).member_count() == 2

    def test_axis_boxes_restriction_matches_enumeration(self):
        fam = AxisBoxes(ProductDomain.of_sizes(3, 3))
        explicit = fam.materialize()
        for axis in range(2):
            line = enumerate_axis_lines(fam.domain, axis)[1]
            assert family_as_set(fam.restrict_to_line(line)) == family_as_set(
                explicit.restrict_to_line(line)
            )

    def test_cylinder_restriction_matches_enumeration(self):
        fam = CylinderSets(3, 2)
        explicit = fam.materialize()
        for axis in range(3):
            line = enumerate_axis_lines(fam.domain, axis)[0]
            assert family_as_set(fam.restrict_to_line(line)) == family_as_set(
                explicit.restrict_to_line(line)
            )

    def test_oracle_without_enumerator_not_enumerable(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = OracleFamily(d, membership=lambda key, pts: pts[:, 0] == key)
        line = enumerate_axis_lines(d, 0)[0]
        with pytest.raises(NotEnumerableError, match="not enumerable"):
            fam.restrict_to_line(line)

    def test_oracle_with_members_enumerates(self):
        d = ProductDomain.of_sizes(2, 2)
        fam = OracleFamily(
            d, membership=lambda key, pts: pts[:, 0] == key, members=[0, 1]
        )
        assert fam.members_matrix().shape == (2, 4)


class TestSymdiff:
    def test_single_empty_member(self):
        d = ProductDomain.of_sizes(2)
        fam = ExplicitFamily(d, [np.zeros(2, bool)])
        assert symdiff_family(fam).member_count() == 1

    def test_single_member_collapses_to_empty(self):
        d = ProductDomain.of_sizes(3)
        fam = ExplicitFamily(d, [[1, 0, 1]])
        out = symdiff_family(fam)
        assert out.member_count() == 1
        assert not out.members_matrix().any()

    def test_two_disjoint_singletons(self):
        d = ProductDomain.of_sizes(2)
        fam = ExplicitFamily(d, [[1, 0], [0, 1]])
        assert family_as_set(symdiff_family(fam)) == family_as_set(
            ExplicitFamily(d, [[0, 0], [1, 1]])
        )

    def test_always_contains_empty(self):
        rng = np.random.default_rng(0)
        d = ProductDomain.of_sizes(3, 3)
        for _ in range(20):
            fam = ExplicitFamily(d, rng.random((5, 9)) < 0.5)
            assert np.packbits(np.zeros(9, bool)).tobytes() in family_as_set(
                symdiff_family(fam)
            )


    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_rows_and_order_match_the_pairwise_loop(self, seed, n_points, k):
        rng = np.random.default_rng(seed)
        fam = ExplicitFamily(ProductDomain.of_sizes(n_points),
                             rng.random((k, n_points)) < rng.random())
        members = fam.members_matrix()
        seen = {}
        for a in members:
            for b in members:
                seen.setdefault(np.packbits(a ^ b).tobytes(), a ^ b)
        want = np.array([seen[key] for key in sorted(seen)])
        assert np.array_equal(symdiff_family(fam).members_matrix(), want)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        d = ProductDomain.of_sizes(2, 3)
        fam = ExplicitFamily(d, np.random.default_rng(1).random((4, 6)) < 0.5)
        path = tmp_path / "family.txt"
        dump_family(fam, path)
        loaded = load_family(path)
        assert loaded.domain.sizes == (2, 3)
        assert family_as_set(loaded) == family_as_set(fam)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# header\ndomain 2 2 2\n\n# member\n1001\n")
        fam = load_family(path)
        assert fam.member_count() == 1

    def test_bad_member_length_rejected(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("domain 1 4\n101\n")
        with pytest.raises(ValueError, match="length"):
            load_family(path)

    def test_non_binary_member_rejected(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("domain 1 3\n1x0\n")
        with pytest.raises(ValueError, match="0/1"):
            load_family(path)

    @pytest.mark.parametrize("text, match", [
        ("domain\n", "line 1: expected 'domain d n_1 ... n_d'"),
        ("domain 2 2 x\n1001\n", "line 1: expected 'domain d n_1 ... n_d'"),
        ("domain 2 2 2\n", "no members"),
    ], ids=["no-sizes", "bad-size", "no-members"])
    def test_truncated_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "family.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(match)):
            load_family(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="header"):
            load_family(path)
