"""Domains, grids, axis-parallel lines, and traces."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import domain as domain_module
from gridest.distributions import ProductDistribution
from gridest.domain import (
    AxisLine,
    CapExceededError,
    Grid,
    ProductDomain,
    build_grid,
    check_marginal_counts,
    enumerate_axis_lines,
    grid_from_counts,
    row_keys,
)

from _oracles import brute_trace


class TestProductDomain:
    def test_width_one_allowed(self):
        d = ProductDomain.of_sizes(5)
        assert d.width == 1 and d.n_points == 5

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 1 size must be at least 1"):
            ProductDomain.of_sizes(2, 0)

    def test_non_integer_size_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="axis 0 size must be an integer"):
            ProductDomain.of_sizes(2.5)
        with pytest.raises(ValueError, match="axis 1 size must be an integer"):
            ProductDomain.of_sizes(3, np.float64(2.0))

    @pytest.mark.parametrize("sizes", [(True, 2), (2, np.True_)])
    def test_bool_size_rejected_not_read_as_one(self, sizes):
        axis = sizes.index(True)
        with pytest.raises(ValueError, match=f"axis {axis} size must be an integer"):
            ProductDomain.of_sizes(*sizes)

    def test_zero_axes_rejected(self):
        with pytest.raises(ValueError):
            ProductDomain([])

    def test_numpy_integer_sizes_are_python_ints(self):
        d = ProductDomain.of_sizes(*np.array([2, 3]))
        assert d.sizes == (2, 3) and all(type(n) is int for n in d.sizes)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.lists(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_equal_and_hash_equal_exactly_when_sizes_are(self, a, b):
        da, db = ProductDomain.of_sizes(*a), ProductDomain.of_sizes(*b)
        assert (da == db) == (a == b)
        assert (hash(da) == hash(db)) == (a == b)
        assert len({da, db}) == (1 if a == b else 2)
        assert da != tuple(a)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_all_points_matches_the_product_order(self, sizes):
        got = ProductDomain.of_sizes(*sizes).all_points()
        want = np.array(
            list(itertools.product(*(range(n) for n in sizes))), dtype=np.int64
        ).reshape(-1, len(sizes))
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_all_points_with_size_one_axes(self):
        got = ProductDomain.of_sizes(1, 3, 1).all_points()
        assert got.tolist() == [[0, 0, 0], [0, 1, 0], [0, 2, 0]]
        assert ProductDomain.of_sizes(1).all_points().tolist() == [[0]]

    def test_flat_index_row_major(self):
        d = ProductDomain.of_sizes(2, 3)
        pts = d.all_points()
        assert d.flat_index(pts).tolist() == list(range(6))
        assert pts[4].tolist() == [1, 1]

    def test_invalid_point_names_offending_index(self):
        d = ProductDomain.of_sizes(3, 3)
        with pytest.raises(ValueError, match="index 1"):
            d.validate_points(np.array([[0, 0], [0, 3]]))


class TestCounts:
    """``axis_counts`` and ``cell_counts`` against a direct tally, and the cap."""

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_a_direct_tally(self, sizes, m, seed):
        d = ProductDomain.of_sizes(*sizes)
        pts = np.random.default_rng(seed).integers(0, sizes, size=(m, len(sizes)))
        cells = np.zeros(sizes, dtype=np.int64)
        for p in pts:
            cells[tuple(p)] += 1
        assert np.array_equal(d.cell_counts(pts), cells)
        for i, got in enumerate(d.axis_counts(pts)):
            assert got.tolist() == [int(np.sum(pts[:, i] == v))
                                    for v in range(sizes[i])]

    def test_cap_is_checked_by_every_table(self):
        ProductDomain.of_sizes(1024, 1024).check_tabulable()  # exactly MAX_CELLS
        d = ProductDomain.of_sizes(1025, 1025)
        u = np.full(1025, 1 / 1025)
        for build in (d.check_tabulable, d.all_points,
                      lambda: d.cell_counts(np.zeros((1, 2), dtype=np.int64)),
                      ProductDistribution(d, [u, u]).table):
            with pytest.raises(CapExceededError, match="1025x1025 has 1050625 "
                                                       "points, too large to tabulate"):
                build()

    def test_grid_cell_cap(self, monkeypatch):
        monkeypatch.setattr(domain_module, "MAX_CELLS", 5)
        d = ProductDomain.of_sizes(2, 3)
        with pytest.raises(CapExceededError, match="grid has 6 cells, exceeds cap 5"):
            Grid(d, (np.arange(2), np.arange(3)))
        assert Grid(d, (np.arange(2), np.arange(2))).cell_count == 4


class TestBuildGrid:
    def test_two_points_sharing_a_column(self):
        # projections {1,3} x {2} give a 2-cell grid
        d = ProductDomain.of_sizes(4, 4)
        g = build_grid(np.array([[1, 2], [3, 2]]), d)
        assert g.sizes == (2, 1)
        assert g.cell_count == 2
        assert g.axes[0].tolist() == [1, 3]

    def test_singleton(self):
        d = ProductDomain.of_sizes(4, 4)
        g = build_grid(np.array([[1, 1]]), d)
        assert g.sizes == (1, 1) and g.cell_count == 1

    def test_distinct_coordinates_square_the_sample(self):
        # 3 points, all coordinates distinct on both axes: 3^2 cells
        d = ProductDomain.of_sizes(5, 5)
        g = build_grid(np.array([[0, 4], [2, 1], [3, 3]]), d)
        assert g.cell_count == 9

    def test_empty_sample_rejected(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError, match="empty sample"):
            build_grid(np.empty((0, 2)), d)

    def test_invalid_point_reported(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError, match="invalid point"):
            build_grid(np.array([[0, 0], [5, 0]]), d)

    def test_invalid_point_named_by_its_index(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError) as info:
            build_grid(np.array([[0, 0], [1, 1], [1, -1]]), d)
        assert str(info.value) == "invalid point at index 2: coordinate 1 out of range [0, 2)"

    def test_cell_order_independent_of_sample_order(self):
        d = ProductDomain.of_sizes(6, 6)
        pts = np.array([[5, 0], [1, 3], [2, 2], [1, 0]])
        g1 = build_grid(pts, d)
        g2 = build_grid(pts[::-1], d)
        cells = d.all_points()
        assert np.array_equal(cells[g1.flat_domain_indices()],
                              cells[g2.flat_domain_indices()])


class TestGridFromCounts:
    def _counts(self, pts, d):
        return [np.bincount(pts[:, i], minlength=n) for i, n in enumerate(d.sizes)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_same_grid_as_build_grid(self, seed, width, m):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=width)
        d = ProductDomain.of_sizes(*sizes)
        pts = rng.integers(0, sizes, size=(m, width))
        got = grid_from_counts(self._counts(pts, d), d)
        want = build_grid(pts, d)
        assert all(np.array_equal(a, b) for a, b in zip(got.axes, want.axes))

    def test_empty_counts_rejected(self):
        d = ProductDomain.of_sizes(2, 2)
        with pytest.raises(ValueError, match="empty sample"):
            grid_from_counts([np.zeros(2, dtype=int)] * 2, d)

    def test_mixed_integer_dtypes_are_counted_exactly(self):
        d = ProductDomain.of_sizes(2, 3)
        counts = [np.array([1, 2], dtype=np.uint64), np.array([0, 3, 0], dtype=np.int8)]
        assert check_marginal_counts(counts, d)[1:] == (3, False)
        assert check_marginal_counts(
            [np.array([2, 2**62], dtype=np.uint64), np.array([1, 1, 2**62])], d
        )[1:] == (2**62 + 2, True)
        with pytest.raises(ValueError, match="count vector per axis"):
            check_marginal_counts(
                [np.array([1, 2**63], dtype=np.uint64), np.array([1, 1, 2**63 - 1])], d
            )

    def test_shape_must_match_domain(self):
        d = ProductDomain.of_sizes(2, 3)
        for counts in ([np.ones(3, dtype=int), np.ones(2, dtype=int)],
                       [np.ones(2, dtype=int)],
                       np.ones((2, 3), dtype=int)):
            with pytest.raises(ValueError, match="count vector per axis"):
                grid_from_counts(counts, d)


class TestGridAxes:
    def test_sorted_input_is_copied_not_aliased_or_frozen(self):
        d = ProductDomain.of_sizes(4, 4)
        rows, cols = np.array([0, 2, 3]), np.arange(4)
        g = Grid(d, (rows, cols))
        for given_axis, kept in zip((rows, cols), g.axes):
            assert not np.shares_memory(given_axis, kept)
            assert given_axis.flags.writeable and not kept.flags.writeable
        rows[0] = 1
        assert g.axes[0].tolist() == [0, 2, 3]

    def test_read_only_input_view_is_copied(self):
        full = ProductDomain.of_sizes(5, 5).full_grid()
        g = Grid(full.domain, tuple(axis[:1] for axis in full.axes))
        assert g.sizes == (1, 1)
        assert not np.shares_memory(g.axes[0], full.axes[0])

    @given(st.lists(st.integers(0, 5), max_size=8), st.lists(st.integers(0, 2), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_unsorted_and_duplicated_axes_come_out_canonical(self, rows, cols):
        g = Grid(ProductDomain.of_sizes(6, 3), (rows, cols))
        assert g.axes[0].tolist() == sorted(set(rows))
        assert g.axes[1].tolist() == sorted(set(cols))
        assert all(axis.dtype == np.int64 for axis in g.axes)
        assert not any(axis.flags.writeable for axis in g.axes)

    @pytest.mark.parametrize("axis", [[0, 4], [-1, 0], [4, 0], [0, 0, 4], [-1]])
    def test_out_of_range_values_raise(self, axis):
        with pytest.raises(ValueError, match="grid axis 0 values outside alphabet"):
            Grid(ProductDomain.of_sizes(4, 4), (np.array(axis), [0]))


class TestFullGrid:
    def test_built_once_per_domain(self):
        d = ProductDomain.of_sizes(3, 4)
        assert d.full_grid() is d.full_grid()
        assert d.full_grid().is_full and d.full_grid().cell_count == 12
        # an equal domain is another object and keeps its own grid
        assert ProductDomain.of_sizes(3, 4).full_grid() is not d.full_grid()

    def test_all_positive_counts_give_the_kept_grid(self):
        d = ProductDomain.of_sizes(3, 4)
        pts = np.array([[0, 0], [1, 1], [2, 2], [2, 3], [0, 3]])
        counts = [np.bincount(pts[:, i], minlength=n) for i, n in enumerate(d.sizes)]
        got = grid_from_counts(counts, d)
        assert got is d.full_grid()
        want = build_grid(pts, d)
        assert all(np.array_equal(a, b) for a, b in zip(got.axes, want.axes))
        cells = d.all_points()
        assert np.array_equal(cells[got.flat_domain_indices()],
                              cells[want.flat_domain_indices()])
        assert np.array_equal(got.flat_domain_indices(), np.arange(12))

    def test_partial_counts_give_a_new_grid_of_the_seen_values(self):
        d = ProductDomain.of_sizes(3, 4)
        counts = [np.array([2, 0, 1]), np.array([1, 1, 0, 1])]
        got = grid_from_counts(counts, d)
        assert got is not d.full_grid() and not got.is_full
        assert [axis.tolist() for axis in got.axes] == [[0, 2], [0, 1, 3]]
        assert grid_from_counts(counts, d) is not got


class TestAxisLines:
    def test_counts(self):
        assert len(enumerate_axis_lines(ProductDomain.of_sizes(2, 2), 0)) == 2
        assert len(enumerate_axis_lines(ProductDomain.of_sizes(3, 3, 3), 2)) == 9

    def test_single_axis_domain_one_line(self):
        d = ProductDomain.of_sizes(7)
        lines = enumerate_axis_lines(d, 0)
        assert len(lines) == 1
        assert len(lines[0].points(d)) == 7

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            enumerate_axis_lines(ProductDomain.of_sizes(2, 2), 2)

    def test_line_has_full_axis_length(self):
        d = ProductDomain.of_sizes(3, 4)
        line = AxisLine(axis=1, fixed=(2, None))
        pts = line.points(d)
        assert pts.shape == (4, 2)
        assert set(map(tuple, pts)) == {(2, j) for j in range(4)}

    @given(
        sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_lines_partition_the_domain(self, sizes, data):
        d = ProductDomain.of_sizes(*sizes)
        axis = data.draw(st.integers(0, d.width - 1))
        lines = enumerate_axis_lines(d, axis)
        assert len(lines) == d.n_points // sizes[axis]
        seen = set()
        for line in lines:
            pts = {tuple(p) for p in line.points(d)}
            assert len(pts) == sizes[axis]
            assert not (seen & pts)
            seen |= pts
        assert len(seen) == d.n_points


class TestRowKeys:
    @given(st.integers(0, 20), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_keys_sort_and_compare_like_rows(self, width, seed, fortran):
        rng = np.random.default_rng(seed)
        bits = rng.random((30, width)) < 0.5
        bits[:10] = bits[rng.integers(0, 30, size=10)]  # repeated rows
        if fortran:
            bits = np.asfortranarray(bits)
        keys = row_keys(bits)
        assert keys.shape == (30,)
        want = np.lexsort(bits.T[::-1]) if width else np.arange(30)
        assert np.array_equal(np.argsort(keys, kind="stable"), want)
        same_row = (bits[:, None, :] == bits[None, :, :]).all(axis=2)
        assert np.array_equal(keys[:, None] == keys[None, :], same_row)


def unpack(trace: bytes, length: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(trace, dtype=np.uint8), count=length).astype(bool)


def trace_key(bits, grid):
    """One dense event's packed trace through the library's batch path."""
    return grid.pack_traces(np.asarray(bits, dtype=bool)[None, :])[0].tobytes()


class TestTrace:
    def test_empty_set_all_zero(self):
        d = ProductDomain.of_sizes(2, 2)
        t = trace_key(np.zeros(4, dtype=bool), d.full_grid())
        assert not unpack(t, 4).any()

    def test_full_domain_all_one(self):
        d = ProductDomain.of_sizes(2, 2)
        t = trace_key(np.ones(4, dtype=bool), d.full_grid())
        assert len(t) == 1 and unpack(t, 4).all()

    def test_diagonal_on_inner_grid(self):
        # F = {(1,1),(2,2)} traced on the grid {1,2} x {1,2}: pattern 1001
        d = ProductDomain.of_sizes(3, 3)
        bits = np.zeros(9, dtype=bool)
        bits[d.flat_index(np.array([[1, 1], [2, 2]]))] = True
        grid = Grid(d, [np.array([1, 2]), np.array([1, 2])])
        assert unpack(trace_key(bits, grid), 4).tolist() == [True, False, False, True]
        assert trace_key(bits, grid) == brute_trace(bits, grid)

    def test_equal_traces_stay_equal_on_subgrids(self):
        d = ProductDomain.of_sizes(3, 3)
        rng = np.random.default_rng(5)
        grid = build_grid(rng.integers(0, 3, size=(4, 2)), d)
        sub = Grid(d, [grid.axes[0][:1], grid.axes[1]])
        members = rng.random((40, 9)) < 0.5
        by_trace = {}
        for row in members:
            by_trace.setdefault(trace_key(row, grid), []).append(row)
        for rows in by_trace.values():
            subs = {trace_key(r, sub) for r in rows}
            assert len(subs) == 1

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 4), st.integers(1, 5)),
           st.integers(0, 6), st.sampled_from(["C", "F", "strided", "reversed"]))
    @settings(max_examples=80, deadline=None)
    def test_pack_traces_packs_the_grid_cells_in_cell_order(self, seed, sizes, m0, layout):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        if m0:
            grid = build_grid(rng.integers(0, sizes, size=(m0, 2)), d)
        elif seed % 2:
            grid = Grid(d, [rng.integers(0, n, size=1) for n in sizes])
        else:
            grid = Grid(d, [np.arange(sizes[0]), np.array([], dtype=np.int64)])
        members = rng.random((12, d.n_points)) < 0.5
        laid_out = {
            "C": members,
            "F": np.asfortranarray(members),
            "strided": np.repeat(members, 2, axis=1)[:, ::2],
            "reversed": members[:, ::-1].copy()[:, ::-1],
        }[layout]
        assert np.array_equal(laid_out, members)
        keys = grid.pack_traces(laid_out)
        # the plain fancy-index gather packs column-major, byte for byte the same
        gathered = row_keys(members[:, grid.flat_domain_indices()])
        assert keys.dtype == gathered.dtype
        assert [k.tobytes() for k in keys] == [k.tobytes() for k in gathered]
        pts = d.all_points()
        on_grid = np.isin(pts[:, 0], grid.axes[0]) & np.isin(pts[:, 1], grid.axes[1])
        by_mask = row_keys(members[:, on_grid])
        assert keys.dtype == by_mask.dtype and np.all(keys == by_mask)
        if grid.cell_count:
            for row, got in zip(members, keys):
                # the oracle reads the cells, not the columns
                assert got.tobytes() == brute_trace(row, grid)
        else:
            assert all(k.tobytes() == b"\x00" for k in keys)

    @pytest.mark.parametrize("sizes", [(1,), (7,), (3, 4), (5, 5), (2, 3, 2)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pack_traces_on_a_full_grid_are_the_row_keys(self, sizes, order):
        # the full grid's cell order is the domain's point order, so a trace
        # is the whole member: the key a full-grid shortcut would return
        d = ProductDomain.of_sizes(*sizes)
        rng = np.random.default_rng(sum(sizes))
        members = np.asarray(rng.random((17, d.n_points)) < 0.5, order=order)
        keys, want = d.full_grid().pack_traces(members), row_keys(members)
        assert keys.dtype == want.dtype
        assert [k.tobytes() for k in keys] == [k.tobytes() for k in want]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: AxisLine(0, (1, 2)), "fixed coordinate given for the free axis",
                 id="line-free-axis"),
    pytest.param(lambda: AxisLine(0, (None, None)),
                 "missing fixed coordinate on a non-free axis", id="line-missing"),
    pytest.param(lambda: Grid(ProductDomain.of_sizes(2, 2), [[0]]),
                 "grid axis count != domain width", id="grid-axes"),
    pytest.param(lambda: ProductDomain.of_sizes(2, 2).validate_points([0, 1, 1]),
                 "point width 3 != domain width 2", id="point-width"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
