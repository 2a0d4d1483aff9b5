"""Set families over finite product domains.

A family is a collection of events (subsets of the domain).  Events are
handled in two currencies:

* dense boolean vectors over the domain's canonical point order,
* membership predicates ``points -> bool array``.

Explicit families store a deduplicated dense member matrix.  Built-ins keep
their defining structure and materialize to explicit form on demand, within
the enumeration caps.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .domain import (
    MAX_MEMBER_CELLS,
    MAX_MEMBERS,
    CapExceededError,
    Grid,
    NotEnumerableError,
    ProductDomain,
    check_sizes,
    code_bits,
    member_rows,
    row_keys,
    row_sums,
)


def perm_graph_bits(perm: Sequence[int], domain: ProductDomain) -> np.ndarray:
    """Dense indicator of the permutation graph ``{(i, perm[i])}`` on ``[n]^2``."""
    n = domain.sizes[0]
    bits = np.zeros(domain.n_points, dtype=bool)
    idx = np.arange(n, dtype=np.int64) * domain.sizes[1] + np.asarray(perm, np.int64)
    bits[idx] = True
    return bits


def check_member_matrix(members: int, points: int) -> None:
    """Refuse a dense member matrix of ``members`` rows over ``points``
    points before it is built: past ``MAX_MEMBERS`` rows, or past
    ``MAX_MEMBER_CELLS`` cells (members x points, one byte each)."""
    if members > MAX_MEMBERS:
        raise CapExceededError(f"family too large: {members} members, cap {MAX_MEMBERS}")
    if members * points > MAX_MEMBER_CELLS:
        raise CapExceededError(
            f"family too large: {members} members x {points} points = "
            f"{members * points} cells, cap {MAX_MEMBER_CELLS}"
        )


class SetFamily:
    """Base class; concrete families implement member enumeration."""

    domain: ProductDomain

    def member_count(self):
        """Exact member count when known without enumeration, else None."""
        return None

    def members_matrix(self) -> np.ndarray:
        """Deduplicated ``(M, n_points)`` boolean member matrix."""
        raise NotEnumerableError("not enumerable")

    def trace_index(self, grid: Grid):
        """The family's trace index on the grid: its ``class_count`` and
        ``sums(members, weights)``, the weights over each query's class's
        representative, raising ``ValueError("trace not represented")`` for a
        trace the family lacks.  A full grid of the family's own domain gets
        ``_full_index``, built on first use and kept; any other grid a fresh
        ``ExplicitTraceIndex`` over the enumerated members."""
        if grid.is_full and grid.domain == self.domain:
            return self._full_index
        return ExplicitTraceIndex(self, grid)

    @functools.cached_property
    def _full_index(self):
        """A family that knows its traces on its full grid overrides this."""
        return ExplicitTraceIndex(self, self.domain.full_grid())

    def max_abs_sum(self, diff: np.ndarray, terms=None) -> float:
        """The exact largest ``|sum of diff over F|`` over members F, for a
        weight per domain point shaped like the domain.  ``terms`` may give
        ``diff`` as a sum of outer products ``a b^T`` that a family can use
        to go faster.  Only a family with an exact maximizer has one."""
        raise ValueError("method inapplicable: family has no structured index")

    def materialize(self) -> "ExplicitFamily":
        return ExplicitFamily(self.domain, self.members_matrix())

    def describe(self) -> str:
        return f"{type(self).__name__}({self.domain.describe()})"


class ExplicitFamily(SetFamily):
    """A family given by an explicit list of dense members: a read-only copy
    of the rows, each distinct row once, at its first occurrence."""

    def __init__(self, domain: ProductDomain, members):
        members = member_rows(np.atleast_2d(members), domain)
        if members.shape[0] == 0:
            raise ValueError("empty family")
        check_member_matrix(*members.shape)
        members = _dedup_rows(members)
        members.flags.writeable = False
        self.domain = domain
        self.members = members

    def member_count(self) -> int:
        return int(self.members.shape[0])

    def members_matrix(self) -> np.ndarray:
        return self.members

    def materialize(self) -> "ExplicitFamily":
        return self

    def describe(self) -> str:
        return f"explicit({self.member_count()} members, {self.domain.describe()})"


def _dedup_rows(members: np.ndarray) -> np.ndarray:
    """Each distinct row once, at its first occurrence, in the original order."""
    _, first = np.unique(row_keys(members), return_index=True)
    return members[np.sort(first)]


def unions_of_rows(rows: np.ndarray, g: int) -> np.ndarray:
    """Every union of at most ``g`` rows of a boolean matrix, each once.

    The empty union comes first, then the unions of r = 1 .. g rows in
    ``itertools.combinations`` order; a repeated union keeps its first place.
    """
    unions = [np.zeros(rows.shape[1], dtype=bool)]
    for r in range(1, g + 1):
        for combo in itertools.combinations(range(len(rows)), r):
            unions.append(np.logical_or.reduce(rows[list(combo)]))
    return _dedup_rows(np.array(unions, dtype=bool))


def _intervals(n: int) -> np.ndarray:
    """The empty set, then every interval ``[a, b]`` of ``[n]`` in lexicographic
    ``(a, b)`` order, as the rows of a boolean matrix."""
    lo, hi = np.triu_indices(n)
    idx = np.arange(n)
    return np.vstack(
        [np.zeros((1, n), dtype=bool), (idx >= lo[:, None]) & (idx <= hi[:, None])]
    )


class PermutationGraphs(SetFamily):
    """All sets ``{(i, pi(i)) : i in [n]}`` on ``[n] x [n]``.

    Every member meets every axis-parallel line in exactly one point, so the
    family restricted to any line is the n singletons and its linear VC
    dimension is 1.  Its kept full-grid index is a ``PermutationGraphIndex``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.domain = ProductDomain.of_sizes(n, n)

    def member_count(self) -> int:
        return math.factorial(self.n)

    def members_matrix(self) -> np.ndarray:
        check_member_matrix(self.member_count(), self.domain.n_points)
        perms = np.array(list(itertools.permutations(range(self.n))), dtype=np.int64)
        members = np.zeros((len(perms), self.domain.n_points), dtype=bool)
        np.put_along_axis(members, np.arange(self.n) * self.n + perms, True, axis=1)
        return members

    @functools.cached_property
    def _full_index(self):
        return PermutationGraphIndex(self.n)

    def max_abs_sum(self, diff: np.ndarray, terms=None) -> float:
        """``max_F |sum of diff over F|``: two signed max-weight assignments.

        Side 0 maximizes ``diff`` over the matchings, side 1 ``-diff``, both
        read off ``diff`` with their sign (``_signed_max``, and the ``sign``
        of ``max_assignment_value``), without a negated copy.  Each
        side ``W`` is bounded by feasible LP duals: column potentials ``v``
        and row potentials ``u = max_j (W - v)`` give the unreduced bound
        ``sum(u) + sum(v)``.  The side with the larger one is solved first,
        and the other only if none of its bounds falls below the first
        value, so the value is the two-solve value.

        Without ``terms`` there are no column potentials: ``u`` is ``W``'s
        row maxima and the unreduced bound is ``sum(u)``.  ``terms``, pairs
        of vectors ``(a, b)`` whose outer products sum to ``diff``, give each
        side its ``v``, the summed rank-1 potentials of
        ``_term_potentials``.  The other side is ruled out when its
        unreduced bound falls below the first value, else when
        ``sum(u) + sum(p)`` does, with column potentials ``p = max_i (W - u)``
        (``_reduce_columns``).  Since ``u_i >= W_ij - v_j``, ``p <= v``, so
        ``max_j (W - p) >= u``, and ``p_j >= W_ij - u_i`` gives ``<=``: up to
        rounding, ``sum(u) + sum(p)`` is the dual ``sum_i max_j (W - p) +
        sum(p)`` that ``p`` gives, no larger than the unreduced bound.  With
        terms, a solved side's ``p`` warm-starts its solve; without them
        every solve is cold (``potentials=None``).

        Terms change how long a solve takes and which solves are skipped,
        not the value, which is summed from ``diff`` (up to the last bits,
        where optimal matchings tie): wrong terms only make a solve slower
        and a bound looser, as long as they are on ``diff``'s scale (far
        larger ones would round away the low bits of ``diff - potentials``).
        A ``diff`` of any shape but ``(n, n)`` is refused.
        """

        def solve(sign, potentials):
            # through the module attribute, which profilers and tests may wrap
            return _estimators().max_assignment_value(diff, potentials, sign)

        if diff.shape != (self.n, self.n):
            raise ValueError(f"need a {(self.n, self.n)} diff, got shape {diff.shape}")
        signs = (1, -1)
        v = None if terms is None else _term_potentials(terms, self.n)
        u = [_signed_max(diff, sign, None if v is None else v[s], axis=1)
             for s, sign in enumerate(signs)]
        unreduced = [r.sum() if v is None else r.sum() + v[s].sum()
                     for s, r in enumerate(u)]
        first = int(unreduced[1] > unreduced[0])
        value = solve(signs[first], None if v is None
                      else _reduce_columns(diff, u[first], signs[first]))
        sign, rows = signs[1 - first], u[1 - first]
        # 1e-12 covers the rounding of the bounds' and the matchings' sums
        cut = value - 1e-12
        if unreduced[1 - first] < cut:
            return value
        p = _reduce_columns(diff, rows, sign)
        if rows.sum() + p.sum() < cut:
            return value
        other = solve(sign, None if v is None else p)
        # in side order: of equal values max keeps the first, so a zero's sign
        return max(value, other) if first == 0 else max(other, value)

    def describe(self) -> str:
        return f"permutation-graphs(n={self.n})"


class PermutationGraphIndex:
    """The permutation graphs' trace index on the full grid, which determines
    the permutation: every trace class is one graph, its own representative.
    The last frozen query matrix it checked (``_frozen``) is kept by identity
    and not checked again."""

    def __init__(self, n: int):
        self.n = n
        self._checked = None

    @functools.cached_property
    def class_count(self) -> int:
        return math.factorial(self.n)

    def sums(self, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Each row's own sum, once the rows are checked to be permutation graphs."""
        n = self.n
        rows = members.shape[0] * n
        # with the graphs' rows stacked, the i-th one must lie on stacked row
        # i, so each row holds exactly one; then k n ones that fill all k n
        # (graph, column) bins put exactly one in each column.  A one at flat
        # index g n^2 + i n + c is on stacked row g n + i, and its bin g n + c
        # is the index minus (stacked row - g) n, without a slow modulo.
        if members is not self._checked:
            ones = np.flatnonzero(members)
            row = ones // n
            if not (
                ones.size == rows
                and (row == np.arange(rows)).all()
                and np.bincount(ones - (row - row // n) * n, minlength=rows).all()
            ):
                raise ValueError("trace not represented")
            if _frozen(members):
                self._checked = members
        return row_sums(members, weights)


def _frozen(rows: np.ndarray) -> bool:
    """Whether a query matrix may be kept by identity: read-only and owning
    its memory, as an explicit family's members are, so no writable view
    can change it."""
    return rows.base is None and not rows.flags.writeable


def _term_potentials(terms, n: int) -> np.ndarray:
    """Column potentials near an optimal assignment dual of each signed side
    of the sum of the terms' outer products ``a b^T``, an ``n x n`` matrix:
    row 0 for the sum itself, row 1 for its negation.

    On one term and a sign, with ``x = sign * a`` and ``y = b``, the
    rearrangement inequality matches the k-th smallest x with the k-th
    smallest y, and the column of the k-th smallest y gets the exact dual
    potential ``sum_{t<=k} x_(t) (y_(t) - y_(t-1))``.  Both signs share the
    order of y, and the sorted ``-a`` is the sorted ``a`` reversed and
    negated, exactly.  The terms' potentials are summed.
    """
    v = np.zeros((2, n))
    up, down = v
    for a, b in terms:
        # tied y share one potential whatever their order; y_(0) = y_(1)
        order = np.argsort(b)
        y = b[order]
        steps = y[1:] - y[:-1]
        x = np.sort(a)
        up[order[1:]] += np.cumsum(x[1:] * steps)
        down[order[1:]] += np.cumsum(-x[-2::-1] * steps)
    return v


def _signed_max(diff: np.ndarray, sign: int, shift, axis: int) -> np.ndarray:
    """``max(sign * diff - shift)`` along ``axis``, for ``sign`` 1 or -1 and
    a ``shift`` that broadcasts against ``diff`` (None for none).

    Sign -1 is read off ``diff`` itself, without a negated copy: as
    ``-min(diff)``, or as ``max(-shift - diff)``, which rounds every entry
    as ``-diff - shift`` does, so its bits are those of the negated copy's.
    ``-min(diff)`` is ``max(-diff)`` up to the sign of a zero, which no
    bound comparison sees."""
    if sign > 0:
        return (diff if shift is None else diff - shift).max(axis=axis)
    if shift is None:
        return -diff.min(axis=axis)
    return (-shift - diff).max(axis=axis)


def _reduce_columns(diff: np.ndarray, rows: np.ndarray, sign: int) -> np.ndarray:
    """``max_i (W - u)``: the least column potentials that make the row
    potentials ``u`` a feasible assignment LP dual of ``W = sign * diff``."""
    return _signed_max(diff, sign, rows[:, None], axis=0)


@functools.cache
def _estimators():
    """``gridest.estimators``, which imports this module, on first use."""
    from . import estimators

    return estimators


class ExplicitTraceIndex:
    """The trace index of a family's enumerated members on a grid: the sorted
    distinct trace keys, ``class_keys``, and one representative row per
    class, ``rows``, the member with the smallest key (``row_keys`` order).
    Its sums gather class totals, ``rows @ weights`` once per weights array
    (kept by identity: the weights must be read-only, as an estimator's are),
    at each query row's class id, looked up once per frozen query matrix
    (``_frozen``; kept by identity too).  A family keeps its full-grid
    index (``SetFamily.trace_index``), so estimators on the full grid share
    it; the kept totals are then those of the last weights.

    Raises ``ValueError`` for a grid of another domain, and
    ``NotEnumerableError`` for a family past the enumeration caps.
    """

    def __init__(self, family: SetFamily, grid: Grid):
        if grid.domain != family.domain:
            raise ValueError("grid and family live on different domains")
        try:
            members = family.members_matrix()
        except (NotEnumerableError, CapExceededError) as exc:
            raise NotEnumerableError("family not trace-enumerable within caps") from exc
        # visit members in the sorted order of their own keys; the first
        # member seen of each trace class is its representative
        order = np.argsort(row_keys(members))
        traces = grid.pack_traces(members)[order]
        class_keys, first = np.unique(traces, return_index=True)
        self.grid = grid
        self.class_keys = class_keys
        self.rows = members[order[first]]
        self.class_count = class_keys.size
        class_keys.flags.writeable = self.rows.flags.writeable = False
        self._weights = self._totals = self._members = self._ids = None

    def sums(self, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The weights summed over the representative of each row's class."""
        if members is self._members:
            ids = self._ids
        else:
            keys = self.grid.pack_traces(members)
            # every id is in range: a key past all but the last class can only be the last
            ids = self.class_keys[:-1].searchsorted(keys)
            if self.class_keys[ids].tobytes() != keys.tobytes():
                raise ValueError("trace not represented")
            if _frozen(members):
                self._members, self._ids = members, ids
        if weights is not self._weights:
            self._weights, self._totals = weights, row_sums(self.rows, weights)
        return self._totals[ids]


class UnionsOfPermutations(SetFamily):
    """Unions of at most ``g`` permutation graphs on ``[n] x [n]``.

    Includes the empty union.  Meets every axis-parallel line in at most ``g``
    points and has linear VC dimension exactly ``g`` (for g <= n).
    """

    def __init__(self, n: int, g: int):
        if n < 1 or g < 0:
            raise ValueError("need n >= 1 and g >= 0")
        self.n = n
        self.g = g
        self.domain = ProductDomain.of_sizes(n, n)

    def members_matrix(self) -> np.ndarray:
        base = PermutationGraphs(self.n)
        n_tuples = sum(
            math.comb(base.member_count(), r) for r in range(self.g + 1)
        )
        # the unions are all built before the repeated ones are dropped
        check_member_matrix(n_tuples, self.domain.n_points)
        return unions_of_rows(base.members_matrix(), self.g)

    def describe(self) -> str:
        return f"unions-of-permutations(n={self.n}, g={self.g})"


class IntervalsOnAxis(SetFamily):
    """Slabs ``{x : a <= x_axis <= b}`` plus the empty set."""

    def __init__(self, domain: ProductDomain, axis: int = 0):
        if not 0 <= axis < domain.width:
            raise ValueError("axis out of range")
        self.domain = domain
        self.axis = axis

    def member_count(self) -> int:
        n = self.domain.sizes[self.axis]
        return 1 + n * (n + 1) // 2

    def members_matrix(self) -> np.ndarray:
        check_member_matrix(self.member_count(), self.domain.n_points)
        # distinct intervals of the axis are distinct slabs, so no row repeats
        x = self.domain.all_points()[:, self.axis]
        return _intervals(self.domain.sizes[self.axis])[:, x]

    def describe(self) -> str:
        return f"intervals(axis={self.axis}, {self.domain.describe()})"


class AxisBoxes(SetFamily):
    """Axis-parallel boxes: products of per-axis intervals, plus the empty set."""

    def __init__(self, domain: ProductDomain):
        self.domain = domain

    def member_count(self) -> int:
        return 1 + math.prod(n * (n + 1) // 2 for n in self.domain.sizes)

    def members_matrix(self) -> np.ndarray:
        check_member_matrix(self.member_count(), self.domain.n_points)
        # boxes in lexicographic order of their per-axis intervals (a, b),
        # a <= b, as outer products of the interval masks, one axis at a time;
        # distinct intervals give distinct nonempty boxes, so no row repeats
        boxes = np.ones((1, 1), dtype=bool)
        for n in self.domain.sizes:
            intervals = _intervals(n)[1:]
            boxes = (boxes[:, None, :, None] & intervals[None, :, None, :]).reshape(
                boxes.shape[0] * len(intervals), -1
            )
        return np.vstack([np.zeros((1, self.domain.n_points), dtype=bool), boxes])

    def describe(self) -> str:
        return f"axis-boxes({self.domain.describe()})"


class PowerSetFamily(SetFamily):
    """All subsets of the domain."""

    def __init__(self, domain: ProductDomain):
        self.domain = domain

    def member_count(self) -> int:
        return 2 ** self.domain.n_points

    def members_matrix(self) -> np.ndarray:
        n = self.domain.n_points
        check_member_matrix(2**n, n)
        return code_bits(np.arange(2**n, dtype=np.int64), n).astype(bool)

    def describe(self) -> str:
        return f"power-set({self.domain.describe()})"


def symdiff_family(family: SetFamily) -> ExplicitFamily:
    """All pairwise symmetric differences ``A xor B``, deduplicated.

    Always contains the empty set (A xor A).  Requires an explicit
    representation within the member caps, and its m^2 differences, before
    deduplication, within them too.
    """
    members = family.members_matrix()
    m, n = members.shape
    check_member_matrix(m * m, n)
    # packing commutes with xor: xored member keys are the differences' keys
    keys = row_keys(members)
    packed = keys.view(np.uint8).reshape(m, -1)
    xors = np.unique((packed[:, None, :] ^ packed[None, :, :]).view(keys.dtype))
    rows = np.unpackbits(xors.view(np.uint8).reshape(xors.size, -1), axis=1, count=n)
    return ExplicitFamily(family.domain, rows)


# -- set-system text format --------------------------------------------------
#
#   domain d n_1 ... n_d
#   0110...            (one member per line, canonical point order)
#
# Lines starting with '#' are comments.


def dump_family(family: SetFamily, path) -> None:
    explicit = family.materialize()
    sizes = explicit.domain.sizes
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"domain {len(sizes)} {' '.join(str(n) for n in sizes)}\n")
        for row in explicit.members:
            fh.write("".join("1" if b else "0" for b in row) + "\n")


def load_family(path) -> ExplicitFamily:
    sizes = None
    count, bits = 0, bytearray()  # one ASCII '0'/'1' byte per point
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if sizes is None:
                parts = line.split()
                if parts[0] != "domain" or not "".join(parts[1:]).isdigit():
                    raise ValueError(f"line {lineno}: expected 'domain d n_1 ... n_d'")
                d, *sizes = map(int, parts[1:])
                if len(sizes) != d:
                    raise ValueError(f"line {lineno}: expected {d} axis sizes")
                try:
                    check_sizes(sizes)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                # members are checked against the header's point count before
                # any domain is built, so an error names the file's line
                n_points = math.prod(sizes)
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"line {lineno}: member is not a 0/1 string")
            if len(line) != n_points:
                raise ValueError(
                    f"line {lineno}: member length {len(line)} != {n_points}"
                )
            count += 1
            try:
                check_member_matrix(count, n_points)
            except CapExceededError as exc:
                raise CapExceededError(f"line {lineno}: {exc}") from None
            bits += line.encode("ascii")
    if sizes is None:
        raise ValueError("missing 'domain' header")
    if not count:
        raise ValueError("no members after the 'domain' header")
    members = np.frombuffer(bits, dtype=np.uint8).reshape(count, n_points) == ord("1")
    return ExplicitFamily(ProductDomain.of_sizes(*sizes), members)
