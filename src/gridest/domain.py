"""Finite product domains, points, axis-parallel lines, and empirical grids.

A domain is a product ``[n_1] x ... x [n_d]`` of finite index ranges, given
by its sizes.  Points are integer index vectors, and samples are ``(m, d)``
integer arrays.  The canonical point order is row-major over axis
indices; every dense set representation and every trace uses this order.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Guard for brute-force enumeration of grid cells / domain points.
MAX_CELLS = 1 << 20
#: Guard for brute-force enumeration of family members.
MAX_MEMBERS = 1 << 20
#: Guard on a dense member matrix: members x points, one byte per cell.
MAX_MEMBER_CELLS = 1 << 28
#: Rows per product in ``row_sums``.
_BLOCK_ROWS = 4096


class CapExceededError(ValueError):
    """Raised when a brute-force enumeration would exceed a configured cap."""


class NotEnumerableError(ValueError):
    """Raised when a family has no explicit members and no enumerable structure."""


def code_bits(codes: np.ndarray, width: int) -> np.ndarray:
    """``(len(codes), width)`` 0/1 integer matrix: column ``j`` holds bit ``j``."""
    return (codes[:, None] >> np.arange(width)) & 1


def row_keys(bits: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of a 0/1 matrix: the row's packed bytes.

    Keys compare bytewise: they sort like the rows (column 0 first) and are
    equal exactly when the rows are.  A zero-size void view drops every row,
    so rows of width 0 get one zero byte.
    """
    packed = np.packbits(bits, axis=1)
    if packed.shape[1] == 0:
        packed = np.zeros((packed.shape[0], 1), dtype=np.uint8)
    return np.ascontiguousarray(packed).view(f"V{packed.shape[1]}").ravel()


def row_sums(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights`` for a bool matrix, in blocks of rows: each block
    bounds the float64 copy NumPy makes of a bool matrix before a product."""
    sums = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], _BLOCK_ROWS):
        sums[i : i + _BLOCK_ROWS] = rows[i : i + _BLOCK_ROWS] @ weights
    return sums


def member_rows(members, domain: "ProductDomain") -> np.ndarray:
    """A dense ``(k, n_points)`` boolean member matrix, checked against the
    domain: the one check of member rows and event rows."""
    members = np.asarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != domain.n_points:
        raise ValueError(
            f"need a (k, {domain.n_points}) member matrix, of member length "
            f"{domain.n_points}, got shape {members.shape}"
        )
    return members


def event_row(event, domain: "ProductDomain") -> np.ndarray:
    """An event (dense bits or a point predicate) as a one-row member matrix;
    a predicate is evaluated on all points."""
    bits = event(domain.all_points()) if callable(event) else event
    return member_rows(np.reshape(bits, (1, -1)), domain)


def check_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Axis sizes as Python ints: at least one, each an integer (not a bool)
    >= 1; ``ValueError`` naming the first bad axis."""
    checked = []
    for i, n in enumerate(sizes):
        if isinstance(n, (bool, np.bool_)) or not hasattr(type(n), "__index__"):
            raise ValueError(f"axis {i} size must be an integer, got {n!r}")
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"axis {i} size must be at least 1, got {n}")
        checked.append(n)
    if not checked:
        raise ValueError("domain width must be at least 1")
    return tuple(checked)


class ProductDomain:
    """A product of finite index ranges ``[n_1] x ... x [n_d]``, one per axis.

    Axis ``i`` takes the values ``0 .. n_i - 1`` in that order, the order of
    grid values and of the canonical row-major point enumeration.  Two
    domains are equal exactly when their sizes are.
    """

    def __init__(self, sizes: Sequence[int]):
        self.sizes = check_sizes(sizes)
        self.width = len(self.sizes)
        self.n_points = math.prod(self.sizes)
        # row-major strides for flat indexing
        strides = [1] * self.width
        for i in range(self.width - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self._strides = np.array(strides, dtype=np.int64)
        self._full_grid: Grid | None = None

    @classmethod
    def of_sizes(cls, *sizes: int) -> "ProductDomain":
        """The domain ``[n_1] x ... x [n_d]``."""
        return cls(sizes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductDomain) and self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    def __repr__(self) -> str:
        return f"ProductDomain(sizes={self.sizes})"

    def describe(self) -> str:
        return "x".join(str(n) for n in self.sizes)

    def validate_points(self, points: np.ndarray) -> np.ndarray:
        """Check an ``(m, d)`` index array; raise naming the first bad index."""
        points = np.asarray(points, dtype=np.int64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != self.width:
            raise ValueError(
                f"point width {points.shape[1]} != domain width {self.width}"
            )
        for i, n in enumerate(self.sizes):
            bad = np.flatnonzero((points[:, i] < 0) | (points[:, i] >= n))
            if bad.size:
                raise ValueError(
                    f"invalid point at index {bad[0]}: "
                    f"coordinate {i} out of range [0, {n})"
                )
        return points

    def flat_index(self, points: np.ndarray) -> np.ndarray:
        """Canonical flat index of each ``(m, d)`` point (row-major)."""
        points = np.asarray(points, dtype=np.int64)
        return points @ self._strides

    def check_tabulable(self) -> None:
        """Raise ``CapExceededError`` if the domain has over ``MAX_CELLS`` points."""
        if self.n_points > MAX_CELLS:
            raise CapExceededError(
                f"domain {self.describe()} has {self.n_points} points, "
                f"too large to tabulate (cap {MAX_CELLS})"
            )

    def axis_counts(self, points: np.ndarray) -> list[np.ndarray]:
        """One value-count vector per axis, of checked ``(m, d)`` points."""
        return [np.bincount(axis, minlength=n) for axis, n in zip(points.T, self.sizes)]

    def cell_counts(self, points: np.ndarray) -> np.ndarray:
        """The point counts of checked ``(m, d)`` points, shaped like the domain.

        Needs a tabulable domain (``check_tabulable``).
        """
        self.check_tabulable()
        flat = np.bincount(self.flat_index(points), minlength=self.n_points)
        return flat.reshape(self.sizes)

    def all_points(self) -> np.ndarray:
        """``(n_points, d)`` array of all points in canonical order (tabulable only)."""
        self.check_tabulable()
        return np.stack(
            np.unravel_index(np.arange(self.n_points), self.sizes),
            axis=1, dtype=np.int64,
        )

    def full_grid(self) -> "Grid":
        """The grid consisting of every point of the domain, built once and kept."""
        if self._full_grid is None:
            self._full_grid = Grid(self, tuple(np.arange(n) for n in self.sizes))
        return self._full_grid


@dataclass(frozen=True)
class AxisLine:
    """An axis-parallel line: all coordinates fixed except ``axis``.

    ``fixed`` has one entry per axis; the entry at ``axis`` is ``None`` and the
    others are coordinate indices.
    """

    axis: int
    fixed: tuple[int | None, ...]

    def __post_init__(self):
        if self.fixed[self.axis] is not None:
            raise ValueError("fixed coordinate given for the free axis")
        if any(v is None for i, v in enumerate(self.fixed) if i != self.axis):
            raise ValueError("missing fixed coordinate on a non-free axis")

    def points(self, domain: "ProductDomain") -> np.ndarray:
        """The line's points, ordered along the free axis."""
        values = np.arange(domain.sizes[self.axis])
        pts = np.empty((len(values), domain.width), dtype=np.int64)
        for j, v in enumerate(self.fixed):
            pts[:, j] = values if j == self.axis else v
        return pts


class Grid:
    """An empirical product grid: per-axis sorted duplicate-free value sets.

    Cells are enumerated row-major over the sorted per-axis values, so the
    cell order is a pure function of the grid contents.
    """

    def __init__(self, domain: ProductDomain, axes: Sequence[np.ndarray]):
        if len(axes) != domain.width:
            raise ValueError("grid axis count != domain width")
        clean = []
        for i, vals in enumerate(axes):
            # a new array: the grid never aliases the caller's values
            vals = np.unique(np.asarray(vals, dtype=np.int64))
            if vals.size and (vals[0] < 0 or vals[-1] >= domain.sizes[i]):
                raise ValueError(f"grid axis {i} values outside alphabet")
            vals.flags.writeable = False
            clean.append(vals)
        self.domain = domain
        self.axes = tuple(clean)
        self.sizes = tuple(int(v.size) for v in clean)
        self.cell_count = math.prod(self.sizes)
        if self.cell_count > MAX_CELLS:
            raise CapExceededError(
                f"grid has {self.cell_count} cells, exceeds cap {MAX_CELLS}"
            )
        self._flat: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Grid(sizes={self.sizes}, cells={self.cell_count})"

    def flat_domain_indices(self) -> np.ndarray:
        """Canonical domain flat index of every cell, in cell order."""
        if self._flat is None:
            flat = np.ravel_multi_index(np.ix_(*self.axes), self.domain.sizes).ravel()
            flat.flags.writeable = False
            self._flat = flat
        return self._flat

    def pack_traces(self, members: np.ndarray) -> np.ndarray:
        """The trace of every row of a dense member matrix, as a ``row_keys`` key.

        Bit ``j`` of a row's trace is the member's bit on cell ``j``, so
        equal traces give equal keys, and keys sort like the traces.  The
        cells are gathered with ``np.take``, which returns a row-major array
        (``members[:, flat]`` comes back column-major), so the packing runs
        along each row's contiguous memory.
        """
        return row_keys(np.take(members, self.flat_domain_indices(), axis=1))

    @property
    def is_full(self) -> bool:
        return self.sizes == self.domain.sizes


def build_grid(sample: np.ndarray, domain: ProductDomain) -> Grid:
    """Project a sample on each axis and take the product of the projections."""
    sample = np.asarray(sample, dtype=np.int64)
    if sample.size == 0:
        raise ValueError("empty sample")
    return grid_from_counts(domain.axis_counts(domain.validate_points(sample)), domain)


def check_marginal_counts(
    marginal_counts, domain: ProductDomain
) -> tuple[list, int, bool]:
    """A sample's per-axis value counts, checked.

    Needs one nonnegative integer vector per axis, of the axis's length, all
    summing to the same m >= 1.  Returns the vectors, m, and whether every
    count is positive (the sample's grid is the full one).
    """
    counts = [np.asarray(c) for c in marginal_counts]
    if len(counts) != domain.width or any(
        c.shape != (n,) or c.dtype.kind not in "iu"
        for c, n in zip(counts, domain.sizes)
    ):
        raise ValueError(
            f"need one nonnegative integer count vector per axis of {domain.sizes}"
        )
    # all axes in one vector; a uint64 count past the int64 range turns negative
    flat = np.concatenate(counts, dtype=np.int64, casting="same_kind")
    smallest = flat.min()
    if smallest < 0:
        raise ValueError(
            f"need one nonnegative integer count vector per axis of {domain.sizes}"
        )
    starts = list(itertools.accumulate(domain.sizes[:-1], initial=0))
    m, *others = np.add.reduceat(flat, starts).tolist()
    if m < 1:
        raise ValueError("empty sample")
    if any(total != m for total in others):
        raise ValueError("marginal counts disagree on the sample size")
    return counts, m, bool(smallest > 0)


def grid_from_counts(marginal_counts, domain: ProductDomain) -> Grid:
    """The grid of a sample given by its per-axis value counts (see ``build_grid``).

    Axis ``i`` holds the values with a positive count on that axis: the
    projection of the sample on it.  A sample that sees every value of every
    axis gets the domain's kept full grid.
    """
    counts, _, full = check_marginal_counts(marginal_counts, domain)
    if full:
        return domain.full_grid()
    return Grid(domain, tuple(np.flatnonzero(c) for c in counts))


def enumerate_axis_lines(domain: ProductDomain, axis: int) -> list[AxisLine]:
    """All axis-parallel lines of ``domain`` in direction ``axis``.

    The lines are pairwise disjoint and partition the domain; their count is
    the product of the other axis sizes.
    """
    if not 0 <= axis < domain.width:
        raise ValueError(f"axis {axis} out of range for width {domain.width}")
    pools = [[None] if j == axis else range(n) for j, n in enumerate(domain.sizes)]
    return [AxisLine(axis=axis, fixed=fixed) for fixed in itertools.product(*pools)]
