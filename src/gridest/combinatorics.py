"""Exact combinatorial dimensions and trace-counting bounds.

VC and linear VC dimensions are computed by brute force with verifiable
witnesses.  The counting bounds (binomial-sum tail, per-axis grid bound, and
its rate form) use exact big-integer arithmetic; floating point appears only
in the rate forms.  The aggregation bound intentionally uses base-2 entropy,
unlike the nats used everywhere else.
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
    PowerSetFamily,
    SetFamily,
    perm_graph_bits,
)
from .info import binary_entropy_bits

VC_DOMAIN_CAP = 16
SHATTER_CAP = 20


@dataclass(frozen=True)
class DimensionCert:
    """A dimension value with a re-verifiable shattered witness set.

    ``witness`` is a tuple of points (index tuples); for linear VC results
    ``line`` is the axis-parallel line containing the witness.
    """

    dimension: int
    witness: tuple
    line: object = None


def _pattern_count(members: np.ndarray, cols) -> int:
    """Number of distinct 0/1 patterns the members realize on the columns."""
    cols = list(cols)
    if not cols:
        return 1
    codes = members[:, cols] @ (1 << np.arange(len(cols), dtype=np.int64))
    return int(np.unique(codes).size)


def shatters(family: SetFamily, points) -> bool:
    """True iff every labeling of ``points`` is realized by some member."""
    points = [tuple(p) for p in points]
    if len(points) > SHATTER_CAP:
        raise CapExceededError(f"cannot check shattering of {len(points)} points")
    if len(set(points)) != len(points):
        return False
    if not points:
        return True  # every nonempty family realizes the empty labeling
    if isinstance(family, PowerSetFamily):
        return True
    members = family.members_matrix()
    flat = family.domain.flat_index(np.array(points, dtype=np.int64))
    return _pattern_count(members, flat) == 2 ** len(points)


def vc_dimension(family: SetFamily) -> DimensionCert:
    """Exact VC dimension by exhaustive search, with a shattered witness."""
    domain = family.domain
    if domain.n_points > VC_DOMAIN_CAP:
        raise CapExceededError(
            f"domain has {domain.n_points} points, VC search cap is {VC_DOMAIN_CAP}"
        )
    members = family.members_matrix()
    points = domain.all_points()
    n = domain.n_points
    best = DimensionCert(0, ())
    max_possible = min(n, int(math.log2(members.shape[0])) if members.shape[0] else 0)
    for size in range(1, max_possible + 1):
        found = None
        for cols in itertools.combinations(range(n), size):
            if _pattern_count(members, cols) == 2**size:
                found = cols
                break
        if found is None:
            break
        witness = tuple(tuple(points[c]) for c in found)
        best = DimensionCert(size, witness)
    return best


def linear_vc_dimension(family: SetFamily) -> DimensionCert:
    """Largest shattered colinear set: max over axes and lines of the line VC.

    Ties break toward the lowest axis, then the first line in enumeration
    order, so the certificate is deterministic.
    """
    domain = family.domain
    best = DimensionCert(0, (), line=None)
    for axis in range(domain.width):
        for line in enumerate_axis_lines(domain, axis):
            restriction = family.restrict_to_line(line)
            cert = vc_dimension(restriction)
            if cert.dimension > best.dimension:
                pts = line.points(domain)
                witness = tuple(
                    tuple(pts[p[0]]) for p in cert.witness
                )  # line-local index -> domain point
                best = DimensionCert(cert.dimension, witness, line=line)
    return best


def count_traces(family: SetFamily, grid: Grid) -> int:
    """Exact number of distinct traces the family induces on the grid."""
    if grid.cell_count == 0:
        return 1
    if isinstance(family, PermutationGraphs) and grid.is_full:
        # the full grid determines the permutation, so all traces are distinct
        return family.member_count()
    if hasattr(family, "trace_enumerator") and family.trace_enumerator is not None:
        return len(set(family.trace_enumerator(grid)))
    return int(np.unique(grid.pack_traces(family.members_matrix())).size)


def binomle(n: int, g: int) -> int:
    """The binomial tail sum ``sum_{j<=g} C(n, j)``; equals 2^n when g >= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if g < 0:
        raise ValueError("need g >= 0")
    if g >= n:
        return 2**n
    return sum(math.comb(n, j) for j in range(g + 1))


def binomle_upper(n: int, g: int) -> float:
    """The bound ``(e n / g)^g`` valid for 1 <= g <= n."""
    if not 1 <= g <= n:
        raise ValueError("bound requires 1 <= g <= n")
    return (math.e * n / g) ** g


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


# -- aggregation bound (base-2 entropy) ----------------------------------------


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


def aggregation_vc_bound(t_rules: int, vc_base: float, vc_agg: float) -> float:
    """VC bound for T-fold aggregations: ``(T * vc_base + vc_agg) / (T * eta)``."""
    if vc_base == 0 and vc_agg == 0:
        return 0.0
    eta = aggregation_eta(t_rules)
    return (t_rules * vc_base + vc_agg) / (t_rules * eta)


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
    domain = ProductDomain.of_sizes(*([n] * d))
    members = []
    if d == 2:
        for perm in itertools.permutations(range(n)):
            members.append(perm_graph_bits(perm, domain))
    else:
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
    base = enumerate_hd_permutations(n, d)
    members = base.members_matrix()
    n_tuples = sum(math.comb(len(members), r) for r in range(g + 1))
    if n_tuples > 1 << 22:
        raise CapExceededError("too many unions to enumerate")
    seen = set()
    empty = np.zeros(members.shape[1], dtype=bool)
    seen.add(np.packbits(empty).tobytes())
    for r in range(1, g + 1):
        for combo in itertools.combinations(range(len(members)), r):
            union = np.logical_or.reduce(members[list(combo)])
            seen.add(np.packbits(union).tobytes())
    exact = len(seen)
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
    members = rng.random((n_members, domain.n_points)) < 0.5
    return ExplicitFamily(domain, members)


def dimension_report_rows(entries) -> list[dict]:
    """Rows (family, n, d, g, vc, traces, ssp_bound, rate_bound) for the CSV report.

    ``entries`` yields (family, grid) pairs; dimensions are computed exactly,
    so every family must be within the brute-force caps.
    """
    rows = []
    for family, grid in entries:
        g = linear_vc_dimension(family).dimension
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
                "traces": count_traces(family, grid),
                "ssp_bound": bound,
                "rate_bound": rate,
            }
        )
    return rows
