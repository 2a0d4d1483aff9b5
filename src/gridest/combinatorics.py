"""Exact combinatorial dimensions and trace-counting bounds.

VC and linear VC dimensions are computed by brute force with verifiable
witnesses, by one search over the members' int64 codes on a column set: all
points of the domain for the VC dimension, each axis-parallel line's points
for the linear one.  The counting bounds (binomial-sum tail, per-axis grid
bound, and its rate form) use exact big-integer arithmetic; floating point
appears only in the rate forms.  The aggregation constant intentionally uses
base-2 entropy, unlike the nats used everywhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    CapExceededError,
    Grid,
    ProductDomain,
    enumerate_axis_lines,
)
from .families import (
    ExplicitFamily,
    PermutationGraphs,
    SetFamily,
    check_member_matrix,
    unions_of_rows,
)
from .info import binary_entropy_bits

VC_DOMAIN_CAP = 16


@dataclass(frozen=True)
class DimensionCert:
    """A dimension value with a re-verifiable shattered witness set.

    ``witness`` is a tuple of points (index tuples); for linear VC results
    ``line`` is the axis-parallel line containing the witness.
    """

    dimension: int
    witness: tuple
    line: object = None


def _shattered_columns(family: SetFamily, cols) -> tuple:
    """The first largest tuple of positions into ``cols`` (at most
    ``VC_DOMAIN_CAP``) that the members shatter, in combinations order: with
    member code bit j its value at ``cols[j]``, positions are shattered when
    ``codes & mask`` takes ``2**size`` values."""
    width = len(cols)
    if width > VC_DOMAIN_CAP:
        raise CapExceededError(
            f"domain has {width} points, VC search cap is {VC_DOMAIN_CAP}"
        )
    weights = 1 << np.arange(width, dtype=np.int64)
    seen = np.zeros(1 << width, dtype=bool)
    seen[(family.members_matrix()[:, cols] * weights).sum(axis=1)] = True
    codes = np.flatnonzero(seen)
    best = ()
    for size in range(1, min(width, codes.size.bit_length() - 1) + 1):
        for found in itertools.combinations(range(width), size):
            seen[:] = False
            seen[codes & sum(1 << p for p in found)] = True
            if np.count_nonzero(seen) == 1 << size:
                best = found
                break
        else:
            break
    return best


def vc_dimension(family: SetFamily) -> DimensionCert:
    """Exact VC dimension by exhaustive search, with a shattered witness."""
    domain = family.domain
    found = _shattered_columns(family, np.arange(domain.n_points))
    points = domain.all_points()
    return DimensionCert(len(found), tuple(tuple(points[c]) for c in found))


def linear_vc_dimension(family: SetFamily) -> DimensionCert:
    """Largest shattered colinear set: max over axes and lines of the line VC.

    Ties break toward the lowest axis, then the first line in enumeration
    order, so the certificate is deterministic.  Every line is searched on
    its own columns of the members, which the family materializes once; a
    family past ``MAX_MEMBERS`` raises ``CapExceededError``, as in
    ``vc_dimension``, and so does a line past ``VC_DOMAIN_CAP`` points.
    """
    family = family.materialize()
    domain = family.domain
    best = DimensionCert(0, (), line=None)
    for axis in range(domain.width):
        for line in enumerate_axis_lines(domain, axis):
            pts = line.points(domain)
            found = _shattered_columns(family, domain.flat_index(pts))
            if len(found) > best.dimension:
                witness = tuple(tuple(pts[p]) for p in found)
                best = DimensionCert(len(found), witness, line=line)
    return best


def count_traces(family: SetFamily, grid: Grid) -> int:
    """Exact number of distinct traces the family induces on the grid."""
    return family.trace_index(grid).class_count


def binomle(n: int, g: int) -> int:
    """The binomial tail sum ``sum_{j<=g} C(n, j)``; equals 2^n when g >= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if g < 0:
        raise ValueError("need g >= 0")
    if g >= n:
        return 2**n
    return sum(math.comb(n, j) for j in range(g + 1))


def grid_ssp_bound(sizes, g: int, axis: int) -> int:
    """Per-axis trace-count bound ``binomle(n_axis, g) ** prod(other sizes)``.

    Exact big-integer arithmetic; valid for any family whose restriction to
    every line in direction ``axis`` has VC dimension at most ``g``.
    """
    sizes = tuple(int(n) for n in sizes)
    if not 0 <= axis < len(sizes):
        raise ValueError("axis out of range")
    other = math.prod(n for j, n in enumerate(sizes) if j != axis)
    return binomle(sizes[axis], g) ** other


def grid_ssp_bound_maxside(sizes, g: int) -> tuple[int, int]:
    """The bound specialized to a largest side; returns (bound, axis)."""
    sizes = tuple(int(n) for n in sizes)
    axis = max(range(len(sizes)), key=lambda j: sizes[j])
    return grid_ssp_bound(sizes, g, axis), axis


def grid_ssp_rate(n: int, d: int, g: int) -> float:
    """Rate form ``g * n^(d-1) * log2(e n / g)`` dominating the exact bound."""
    if not 1 <= g <= n:
        raise ValueError("rate form inapplicable")
    if d < 1:
        raise ValueError("need d >= 1")
    return g * n ** (d - 1) * math.log2(math.e * n / g)


# -- aggregation constant (base-2 entropy) -------------------------------------


def aggregation_eta(t_rules: int) -> float:
    """The unique eta in (0, 1/2) with H2(eta) = 1/(T+1), by bisection."""
    if t_rules < 1:
        raise ValueError("need T >= 1")
    target = 1.0 / (t_rules + 1)
    lo, hi = 1e-300, 0.5
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if binary_entropy_bits(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- exactly-one-per-line sets and union families -------------------------------

_HD_CAPS = {2: 6, 3: 4}


def enumerate_hd_permutations(n: int, d: int) -> ExplicitFamily:
    """All subsets of ``[n]^d`` meeting every axis-parallel line exactly once.

    For d=2 these are the n! permutation matrices; for d=3 the Latin squares
    of order n.  Exhaustive construction, capped at tiny n.
    """
    if d not in _HD_CAPS:
        raise CapExceededError(f"only d in {sorted(_HD_CAPS)} supported")
    if n > _HD_CAPS[d]:
        raise CapExceededError(f"n={n} exceeds cap {_HD_CAPS[d]} for d={d}")
    if d == 2:
        return PermutationGraphs(n).materialize()
    domain = ProductDomain.of_sizes(n, n, n)
    members = []
    for square in _latin_squares(n):
        bits = np.zeros(domain.n_points, dtype=bool)
        pts = np.array(
            [[i, j, square[i][j]] for i in range(n) for j in range(n)],
            dtype=np.int64,
        )
        bits[domain.flat_index(pts)] = True
        members.append(bits)
    return ExplicitFamily(domain, np.array(members, dtype=bool))


def _latin_squares(n: int):
    """All n x n Latin squares, built row by row from permutations."""
    perms = list(itertools.permutations(range(n)))

    def extend(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        for perm in perms:
            if all(
                perm[j] != prev[j] for prev in rows for j in range(n)
            ):
                rows.append(perm)
                yield from extend(rows)
                rows.pop()

    yield from extend([])


def union_family_lower_check(n: int, d: int, g: int) -> tuple[int, float]:
    """Exact union-family size against the counting lower bound.

    Builds all unions of at most ``g`` exactly-one-per-line sets of ``[n]^d``,
    counts the distinct unions exactly, and returns that count together with
    the bound ``|F|^g / g^(g n^(d-1))``.  Raises if the exact count ever falls
    below the bound.
    """
    if g < 1:
        raise ValueError("need g >= 1")
    members = enumerate_hd_permutations(n, d).members_matrix()
    # the unions are all built before the repeated ones are dropped
    check_member_matrix(
        sum(math.comb(len(members), r) for r in range(g + 1)), members.shape[1]
    )
    exact = len(unions_of_rows(members, g))
    bound = len(members) ** g / g ** (g * n ** (d - 1))
    if exact < bound:
        raise AssertionError(
            f"union count {exact} fell below the bound {bound}; "
            "the enumeration is wrong"
        )
    return exact, bound


def random_explicit_family(
    domain: ProductDomain, n_members: int, rng: np.random.Generator
) -> ExplicitFamily:
    """Seeded random family: each point joins each member with probability 1/2."""
    # checked before one float per cell is drawn
    check_member_matrix(n_members, domain.n_points)
    members = rng.random((n_members, domain.n_points)) < 0.5
    return ExplicitFamily(domain, members)


def dimension_report_rows(entries) -> list[dict]:
    """Rows (family, n, d, g, vc, traces, ssp_bound, rate_bound) for the CSV report.

    ``entries`` yields ``(family, grid, g, traces)``: the family's linear VC
    dimension and its trace count on the grid, as the caller computed them.
    Only the VC dimension is searched here: exactly, or ``None`` on a domain
    past ``VC_DOMAIN_CAP`` points.
    """
    rows = []
    for family, grid, g, traces in entries:
        sizes = grid.sizes
        n = max(sizes)
        d = len(sizes)
        bound, _ = grid_ssp_bound_maxside(sizes, g)
        try:
            vc = vc_dimension(family).dimension
        except CapExceededError:
            vc = None
        rate = grid_ssp_rate(n, d, g) if 1 <= g <= n else None
        rows.append(
            {
                "family": family.describe(),
                "n": n,
                "d": d,
                "g": g,
                "vc": vc,
                "traces": traces,
                "ssp_bound": bound,
                "rate_bound": rate,
            }
        )
    return rows
