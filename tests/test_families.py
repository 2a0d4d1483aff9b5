"""Set-family representations, built-ins, line restrictions, and the text format."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import families
from gridest.domain import CapExceededError, ProductDomain
from gridest.families import (
    AxisBoxes,
    ExplicitFamily,
    IntervalsOnAxis,
    PermutationGraphs,
    PowerSetFamily,
    UnionsOfPermutations,
    dump_family,
    load_family,
    symdiff_family,
    unions_of_rows,
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

    @pytest.mark.parametrize("sizes", [(1,), (4,), (3, 4), (2, 1, 3), (1, 3, 1)])
    def test_intervals_match_a_double_loop(self, sizes):
        d = ProductDomain.of_sizes(*sizes)
        x = d.all_points()
        for axis, n in enumerate(sizes):
            rows = [np.zeros(d.n_points, dtype=bool)]
            for a in range(n):
                for b in range(a, n):
                    rows.append((x[:, axis] >= a) & (x[:, axis] <= b))
            fam = IntervalsOnAxis(d, axis)
            members = fam.members_matrix()
            assert np.array_equal(members, np.array(rows))
            assert members.shape[0] == fam.member_count()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 5),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_unions_of_rows_match_a_first_seen_loop(self, seed, k, width, g):
        rng = np.random.default_rng(seed)
        rows = rng.random((k, width)) < 0.4
        want, seen = [], set()
        for r in range(g + 1):
            for combo in itertools.combinations(range(k), r):
                union = np.zeros(width, dtype=bool)
                for i in combo:
                    union |= rows[i]
                if union.tobytes() not in seen:
                    seen.add(union.tobytes())
                    want.append(union)
        assert np.array_equal(unions_of_rows(rows, g), np.array(want))

    def test_oversized_builtin_raises(self):
        with pytest.raises(CapExceededError, match="family too large"):
            PermutationGraphs(20).members_matrix()

    def test_oversized_intervals_raise(self, monkeypatch):
        domain = ProductDomain.of_sizes(5)
        assert len(IntervalsOnAxis(domain).members_matrix()) == 16
        monkeypatch.setattr(families, "MAX_MEMBERS", 10)
        for family in (IntervalsOnAxis(domain), AxisBoxes(domain)):
            with pytest.raises(CapExceededError, match="family too large"):
                family.members_matrix()


def _never_run(*args, **kwargs):
    raise AssertionError("built members before the cap was checked")


_SYMDIFF_BASE = ExplicitFamily(ProductDomain.of_sizes(4), np.eye(3, 4, dtype=bool))

#: Each build of a member matrix, its members x points before deduplication,
#: and a function it calls only once the cap has passed.
_CELL_CASES = {
    "permutation-graphs": (lambda: PermutationGraphs(4).members_matrix(), 24, 16, None),
    "unions": (lambda: UnionsOfPermutations(3, 2).members_matrix(), 1 + 6 + 15, 9,
               "unions_of_rows"),
    "intervals": (lambda: IntervalsOnAxis(ProductDomain.of_sizes(5)).members_matrix(),
                  16, 5, "_intervals"),
    "boxes": (lambda: AxisBoxes(ProductDomain.of_sizes(3, 4)).members_matrix(),
              1 + 6 * 10, 12, "_intervals"),
    "power-set": (lambda: PowerSetFamily(ProductDomain.of_sizes(2, 2)).members_matrix(),
                  16, 4, "code_bits"),
    "explicit": (lambda: ExplicitFamily(ProductDomain.of_sizes(3),
                                        [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                 4, 3, "_dedup_rows"),
    "symdiff": (lambda: symdiff_family(_SYMDIFF_BASE), 9, 4, "row_keys"),
}


class TestMemberCellCap:
    """One cap on a member matrix's members x points, checked before it is built."""

    @pytest.mark.parametrize("case", _CELL_CASES)
    def test_refused_one_cell_past_the_cap(self, case, monkeypatch):
        build, members, points, guarded = _CELL_CASES[case]
        cells = members * points
        monkeypatch.setattr(families, "MAX_MEMBER_CELLS", cells)
        build()
        monkeypatch.setattr(families, "MAX_MEMBER_CELLS", cells - 1)
        if guarded:
            monkeypatch.setattr(families, guarded, _never_run)
        want = f"{members} members x {points} points = {cells} cells, cap {cells - 1}"
        with pytest.raises(CapExceededError, match=re.escape(want)):
            build()

    def test_real_cap_refuses_boxes_44x44_and_admits_the_sizes_in_use(self, monkeypatch):
        monkeypatch.setattr(families, "_intervals", _never_run)
        # 980,101 boxes x 1936 points: 1.77 GiB as bool
        with pytest.raises(CapExceededError, match=re.escape("980101 members x 1936 points")):
            AxisBoxes(ProductDomain.of_sizes(44, 44)).members_matrix()
        for family in (AxisBoxes(ProductDomain.of_sizes(16, 16)),
                       AxisBoxes(ProductDomain.of_sizes(31, 31)),
                       PermutationGraphs(9),
                       PowerSetFamily(ProductDomain.of_sizes(20))):
            families.check_member_matrix(family.member_count(), family.domain.n_points)


def restrict_to_line(family, line):
    """The distinct traces of ``family`` on ``line``, as a family on its points."""
    flat = family.domain.flat_index(line.points(family.domain))
    return ExplicitFamily(
        ProductDomain.of_sizes(len(flat)), family.members_matrix()[:, flat]
    )


class TestRestrictions:
    def test_permutation_graphs_restrict_to_singletons(self):
        fam = PermutationGraphs(3)
        line = enumerate_axis_lines(fam.domain, 1)[0]
        assert family_as_set(restrict_to_line(fam, line)) == family_as_set(
            ExplicitFamily(ProductDomain.of_sizes(3), np.eye(3, dtype=bool))
        )

    def test_power_set_on_cube_line_is_full_power_set(self):
        fam = PowerSetFamily(ProductDomain.of_sizes(2, 2, 2))
        line = enumerate_axis_lines(fam.domain, 1)[0]
        assert restrict_to_line(fam, line).member_count() == 4

    def test_intervals_on_four_point_line(self):
        # 10 nonempty sub-intervals plus the empty set
        fam = IntervalsOnAxis(ProductDomain.of_sizes(4))
        line = enumerate_axis_lines(fam.domain, 0)[0]
        assert restrict_to_line(fam, line).member_count() == 11


class TestMaterialize:
    @pytest.mark.parametrize("make", [
        lambda: PermutationGraphs(4),
        lambda: UnionsOfPermutations(3, 2),
        lambda: IntervalsOnAxis(ProductDomain.of_sizes(5)),
        lambda: IntervalsOnAxis(ProductDomain.of_sizes(3, 4), axis=1),
        lambda: AxisBoxes(ProductDomain.of_sizes(3, 4)),
        lambda: PowerSetFamily(ProductDomain.of_sizes(2, 2)),
    ], ids=["perm", "unions", "intervals", "intervals-axis1", "boxes", "power-set"])
    def test_keeps_every_built_in_row_in_order(self, make):
        family = make()
        rows = family.members_matrix()
        got = family.materialize().members_matrix()
        assert got.dtype == rows.dtype == bool and got.shape == rows.shape
        assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("make, label", [
    (lambda: PermutationGraphs(4), "permutation-graphs(n=4)"),
    (lambda: UnionsOfPermutations(3, 2), "unions-of-permutations(n=3, g=2)"),
    (lambda: IntervalsOnAxis(ProductDomain.of_sizes(3, 4), axis=1),
     "intervals(axis=1, 3x4)"),
    (lambda: AxisBoxes(ProductDomain.of_sizes(3, 4)), "axis-boxes(3x4)"),
    (lambda: PowerSetFamily(ProductDomain.of_sizes(2, 2)), "power-set(2x2)"),
    (lambda: ExplicitFamily(ProductDomain.of_sizes(3), [[1, 0, 1], [0, 1, 0]]),
     "explicit(2 members, 3)"),
], ids=["perm", "unions", "intervals", "boxes", "power-set", "explicit"])
def test_report_label(make, label):
    """The label a report and a dimension-report row print for the family."""
    assert make().describe() == label


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
        got = symdiff_family(fam).members_matrix()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
        ("# one size short\ndomain 2 4\n1001\n", "line 2: expected 2 axis sizes"),
        # checked at the header, not after the members are read against it
        ("domain 0\n1\n", "line 1: domain width must be at least 1"),
        ("domain 2 3 0\n", "line 1: axis 1 size must be at least 1, got 0"),
    ], ids=["no-sizes", "bad-size", "no-members", "size-count", "no-axes",
            "empty-axis"])
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

    def test_member_cap_names_the_first_line_past_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(families, "MAX_MEMBERS", 3)
        path = tmp_path / "family.txt"
        # rows count before dedup: the repeated member is row 3, and line 7
        # holds row 4; the malformed line 8 is never read
        path.write_text("domain 1 3\n100\n# c\n010\n\n010\n001\nxxx\n")
        with pytest.raises(CapExceededError,
                           match=re.escape("line 7: family too large: 4 members, cap 3")):
            load_family(path)
        path.write_text("domain 1 3\n100\n010\n010\n")
        assert load_family(path).member_count() == 2

    def test_cell_cap_names_the_first_line_past_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(families, "MAX_MEMBER_CELLS", 8)
        path = tmp_path / "family.txt"
        # the third 3-point member makes 9 cells, on line 5; line 6 is never read
        path.write_text("domain 1 3\n100\n# c\n010\n001\nxxx\n")
        with pytest.raises(CapExceededError, match=re.escape(
                "line 5: family too large: 3 members x 3 points = 9 cells, cap 8")):
            load_family(path)
        monkeypatch.setattr(families, "MAX_MEMBER_CELLS", 9)
        path.write_text("domain 1 3\n100\n010\n001\n")
        assert load_family(path).member_count() == 3

    def test_member_length_checked_before_the_domain(self, tmp_path, monkeypatch):
        def never(*sizes):
            raise AssertionError("built a domain for members of the wrong length")

        monkeypatch.setattr(ProductDomain, "of_sizes", never)
        path = tmp_path / "family.txt"
        path.write_text("domain 1 2000000\n101\n")
        with pytest.raises(ValueError, match="member length 3 != 2000000"):
            load_family(path)

    @given(
        header=st.one_of(
            st.lists(st.integers(0, 10**6), max_size=8).map(
                lambda sizes: f"domain {len(sizes)} {' '.join(map(str, sizes))}"),
            st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
                lambda sizes: f"domain {len(sizes)} {' '.join(map(str, sizes))}"),
            st.text(alphabet="domain 0123456789x#-", max_size=20),
        ),
        members=st.lists(st.text(alphabet="01", max_size=70), max_size=8),
        junk=st.text(alphabet="01 #x\n\t", max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_text_loads_or_raises_value_error(self, tmp_path_factory, header,
                                                  members, junk):
        path = tmp_path_factory.mktemp("fuzz") / "family.txt"
        path.write_text("\n".join([header, *members, junk]) + "\n")
        try:
            fam = load_family(path)
        except ValueError:
            return
        assert fam.members.shape[1] == fam.domain.n_points


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PermutationGraphs(0), "n must be positive", id="permutations-n"),
    pytest.param(lambda: UnionsOfPermutations(0, 1), "need n >= 1 and g >= 0",
                 id="unions-n"),
    pytest.param(lambda: UnionsOfPermutations(2, -1), "need n >= 1 and g >= 0",
                 id="unions-g"),
    pytest.param(lambda: IntervalsOnAxis(ProductDomain.of_sizes(2, 2), 2),
                 "axis out of range", id="intervals-axis"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
