"""Finite product domains, points, axis-parallel lines, and empirical grids.

A domain is a cartesian product of finite ordered alphabets.  Points are
stored as integer index vectors into the per-axis alphabets, and samples are
``(m, d)`` integer arrays.  The canonical point order is row-major over axis
indices; every dense set representation and every trace uses this order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

#: Guard for brute-force enumeration of grid cells / domain points.
MAX_CELLS = 1 << 20
#: Guard for brute-force enumeration of family members.
MAX_MEMBERS = 1 << 20


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


class ProductDomain:
    """A product of finite ordered alphabets ``W_1 x ... x W_d``.

    Each alphabet is a list of distinct values; the list order is the axis
    order used for sorting grid values and for the canonical row-major cell
    enumeration.
    """

    def __init__(self, axes: Sequence[Sequence[Any]]):
        axes = tuple(tuple(a) for a in axes)
        if len(axes) < 1:
            raise ValueError("domain width must be at least 1")
        for i, alphabet in enumerate(axes):
            if len(alphabet) == 0:
                raise ValueError(f"axis {i} alphabet is empty")
            if len(set(alphabet)) != len(alphabet):
                raise ValueError(f"axis {i} alphabet has duplicate values")
        self.axes = axes
        self.sizes = tuple(len(a) for a in axes)
        self.width = len(axes)
        self.n_points = math.prod(self.sizes)
        # row-major strides for flat indexing
        strides = [1] * self.width
        for i in range(self.width - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self._strides = np.array(strides, dtype=np.int64)

    @classmethod
    def of_sizes(cls, *sizes: int) -> "ProductDomain":
        """Domain with integer alphabets ``0..n_i-1`` (values equal indices)."""
        return cls([range(n) for n in sizes])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductDomain) and self.axes == other.axes

    def __hash__(self) -> int:
        return hash(self.axes)

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
                    f"invalid point at sample index {bad[0]}: "
                    f"coordinate {i} out of range [0, {n})"
                )
        return points

    def flat_index(self, points: np.ndarray) -> np.ndarray:
        """Canonical flat index of each ``(m, d)`` point (row-major)."""
        points = np.asarray(points, dtype=np.int64)
        return points @ self._strides

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        """All points as index tuples in canonical order (guarded by cap)."""
        if self.n_points > MAX_CELLS:
            raise CapExceededError(
                f"domain has {self.n_points} points, exceeds cap {MAX_CELLS}"
            )
        return itertools.product(*(range(n) for n in self.sizes))

    def all_points(self) -> np.ndarray:
        """``(n_points, d)`` array of all points in canonical order."""
        return np.array(list(self.iter_points()), dtype=np.int64).reshape(
            self.n_points, self.width
        )

    def full_grid(self) -> "Grid":
        """The grid consisting of every point of the domain."""
        return Grid(self, tuple(np.arange(n) for n in self.sizes))


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

    def points(self, space: "ProductDomain | Grid") -> np.ndarray:
        """The line's points within ``space``, ordered along the free axis."""
        if isinstance(space, Grid):
            values = space.axes[self.axis]
            width = space.domain.width
        else:
            values = np.arange(space.sizes[self.axis])
            width = space.width
        pts = np.empty((len(values), width), dtype=np.int64)
        for j, v in enumerate(self.fixed):
            if j == self.axis:
                pts[:, j] = values
            else:
                pts[:, j] = v
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
        self._cells: np.ndarray | None = None
        self._flat: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Grid(sizes={self.sizes}, cells={self.cell_count})"

    def cells(self) -> np.ndarray:
        """``(cell_count, d)`` array of cells in canonical row-major order."""
        if self._cells is None:
            if self.cell_count == 0:
                cells = np.empty((0, self.domain.width), dtype=np.int64)
            else:
                mesh = np.meshgrid(*self.axes, indexing="ij")
                cells = np.stack([m.ravel() for m in mesh], axis=1)
            cells.flags.writeable = False
            self._cells = cells
        return self._cells

    def flat_domain_indices(self) -> np.ndarray:
        """Canonical domain flat index of every cell, in cell order."""
        if self._flat is None:
            flat = self.domain.flat_index(self.cells())
            flat.flags.writeable = False
            self._flat = flat
        return self._flat

    def pack_traces(self, members: np.ndarray) -> np.ndarray:
        """The trace of every row of a dense member matrix, as a ``row_keys`` key.

        Bit ``j`` of a row's trace is the member's bit on cell ``j``, so
        equal traces give equal keys, and keys sort like the traces.
        """
        return row_keys(members[:, self.flat_domain_indices()])

    def point_mask(self) -> np.ndarray:
        """Boolean mask over the domain's canonical point order: cell or not."""
        mask = np.zeros(self.domain.n_points, dtype=bool)
        mask[self.flat_domain_indices()] = True
        return mask

    @property
    def is_full(self) -> bool:
        return self.sizes == self.domain.sizes


def build_grid(sample: np.ndarray, domain: ProductDomain) -> Grid:
    """Project a sample on each axis and take the product of the projections."""
    sample = np.asarray(sample, dtype=np.int64)
    if sample.size == 0:
        raise ValueError("empty sample")
    sample = domain.validate_points(sample)
    return Grid(domain, tuple(np.unique(sample[:, i]) for i in range(domain.width)))


def grid_from_counts(counts: np.ndarray, domain: ProductDomain) -> Grid:
    """The grid of a sample given by its cell counts (see ``build_grid``).

    Axis ``i`` holds the values whose count, summed over the other axes, is
    positive: the projection of the sample on that axis.
    """
    counts = np.asarray(counts)
    if counts.shape != domain.sizes:
        raise ValueError(
            f"count shape {counts.shape} != domain shape {domain.sizes}"
        )
    if not counts.any():
        raise ValueError("empty sample")
    axes = range(domain.width)
    return Grid(domain, tuple(
        np.flatnonzero(counts.sum(axis=tuple(j for j in axes if j != i)))
        for i in axes
    ))


def enumerate_axis_lines(space: ProductDomain | Grid, axis: int) -> list[AxisLine]:
    """All axis-parallel lines of ``space`` in direction ``axis``.

    The lines are pairwise disjoint and partition the space; their count is
    the product of the other axis sizes.
    """
    if isinstance(space, Grid):
        width = space.domain.width
        other_values = [space.axes[j] for j in range(width)]
    else:
        width = space.width
        other_values = [np.arange(n) for n in space.sizes]
    if not 0 <= axis < width:
        raise ValueError(f"axis {axis} out of range for width {width}")
    pools = [other_values[j] if j != axis else [None] for j in range(width)]
    lines = []
    for combo in itertools.product(*pools):
        fixed = tuple(None if j == axis else int(combo[j]) for j in range(width))
        lines.append(AxisLine(axis=axis, fixed=fixed))
    return lines
