"""Domains, grids, axis-parallel lines, and traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.domain import (
    AxisLine,
    Grid,
    ProductDomain,
    build_grid,
    enumerate_axis_lines,
    grid_from_counts,
    row_keys,
)
from gridest.families import trace_of


class TestProductDomain:
    def test_width_one_allowed(self):
        d = ProductDomain.of_sizes(5)
        assert d.width == 1 and d.n_points == 5

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ProductDomain([[1, 2], []])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProductDomain([[1, 1, 2]])

    def test_zero_axes_rejected(self):
        with pytest.raises(ValueError):
            ProductDomain([])

    def test_flat_index_row_major(self):
        d = ProductDomain.of_sizes(2, 3)
        pts = d.all_points()
        assert d.flat_index(pts).tolist() == list(range(6))
        assert pts[4].tolist() == [1, 1]

    def test_invalid_point_names_offending_index(self):
        d = ProductDomain.of_sizes(3, 3)
        with pytest.raises(ValueError, match="index 1"):
            d.validate_points(np.array([[0, 0], [0, 3]]))


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

    def test_cell_order_independent_of_sample_order(self):
        d = ProductDomain.of_sizes(6, 6)
        pts = np.array([[5, 0], [1, 3], [2, 2], [1, 0]])
        g1 = build_grid(pts, d)
        g2 = build_grid(pts[::-1], d)
        assert np.array_equal(g1.cells(), g2.cells())


class TestGridFromCounts:
    def _counts(self, pts, d):
        return np.bincount(d.flat_index(pts), minlength=d.n_points).reshape(d.sizes)

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
            grid_from_counts(np.zeros((2, 2), dtype=int), d)

    def test_shape_must_match_domain(self):
        d = ProductDomain.of_sizes(2, 3)
        with pytest.raises(ValueError, match="shape"):
            grid_from_counts(np.ones((3, 2), dtype=int), d)


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

    def test_grid_lines_partition_the_grid(self):
        d = ProductDomain.of_sizes(5, 5)
        grid = build_grid(np.array([[0, 1], [2, 3], [4, 1]]), d)
        lines = enumerate_axis_lines(grid, 0)
        assert len(lines) == grid.sizes[1]
        covered = set()
        for line in lines:
            covered |= {tuple(p) for p in line.points(grid)}
        assert covered == {tuple(c) for c in grid.cells()}


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


class TestTrace:
    def test_empty_set_all_zero(self):
        d = ProductDomain.of_sizes(2, 2)
        t = trace_of(np.zeros(4, dtype=bool), d.full_grid())
        assert not unpack(t, 4).any()

    def test_full_domain_all_one(self):
        d = ProductDomain.of_sizes(2, 2)
        t = trace_of(np.ones(4, dtype=bool), d.full_grid())
        assert len(t) == 1 and unpack(t, 4).all()

    def test_diagonal_on_inner_grid(self):
        # F = {(1,1),(2,2)} traced on the grid {1,2} x {1,2}: pattern 1001
        d = ProductDomain.of_sizes(3, 3)
        bits = np.zeros(9, dtype=bool)
        bits[d.flat_index(np.array([[1, 1], [2, 2]]))] = True
        grid = Grid(d, [np.array([1, 2]), np.array([1, 2])])
        assert unpack(trace_of(bits, grid), 4).tolist() == [True, False, False, True]

    def test_predicate_events_accepted(self):
        d = ProductDomain.of_sizes(3, 3)
        t = trace_of(lambda pts: pts[:, 0] == pts[:, 1], d.full_grid())
        assert int(unpack(t, 9).sum()) == 3

    def test_equality_is_bitwise(self):
        grid = ProductDomain.of_sizes(3).full_grid()
        a = trace_of(np.array([1, 0, 1], dtype=bool), grid)
        b = trace_of(lambda pts: pts[:, 0] != 1, grid)
        c = trace_of(np.array([1, 0, 0], dtype=bool), grid)
        assert a == b and hash(a) == hash(b) and a != c

    def test_equal_traces_stay_equal_on_subgrids(self):
        d = ProductDomain.of_sizes(3, 3)
        rng = np.random.default_rng(5)
        grid = build_grid(rng.integers(0, 3, size=(4, 2)), d)
        sub = Grid(d, [grid.axes[0][:1], grid.axes[1]])
        members = rng.random((40, 9)) < 0.5
        by_trace = {}
        for row in members:
            by_trace.setdefault(trace_of(row, grid), []).append(row)
        for rows in by_trace.values():
            subs = {trace_of(r, sub) for r in rows}
            assert len(subs) == 1

    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(1, 4), st.integers(1, 5)),
           st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_pack_traces_packs_the_grid_cells_in_cell_order(self, seed, sizes, m0):
        rng = np.random.default_rng(seed)
        d = ProductDomain.of_sizes(*sizes)
        grid = build_grid(rng.integers(0, sizes, size=(m0, 2)), d)
        members = rng.random((12, d.n_points)) < 0.5
        keys = grid.pack_traces(members)
        by_mask = row_keys(members[:, grid.point_mask()])
        assert keys.dtype == by_mask.dtype and np.all(keys == by_mask)
        for row, got in zip(members, keys):
            # the predicate branch of trace_of reads the cells, not the columns
            want = trace_of(lambda pts, row=row: row[d.flat_index(pts)], grid)
            assert got.tobytes() == want

    def test_empty_grid_trace_rejected(self):
        d = ProductDomain.of_sizes(2, 2)
        empty = Grid(d, [np.array([], dtype=np.int64), np.array([0])])
        with pytest.raises(ValueError, match="empty grid"):
            trace_of(np.zeros(4, dtype=bool), empty)
