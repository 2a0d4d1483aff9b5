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

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import (
    MAX_MEMBERS,
    AxisLine,
    CapExceededError,
    Grid,
    NotEnumerableError,
    ProductDomain,
    code_bits,
    row_keys,
)


def trace_of(event, grid: Grid) -> bytes:
    """The trace as ``np.packbits`` bytes: bit ``j`` is 1 iff cell ``j`` is in it."""
    if grid.cell_count == 0:
        raise ValueError("trace on empty grid")
    if callable(event):
        return np.packbits(np.asarray(event(grid.cells()), dtype=bool)).tobytes()
    return grid.pack_traces(np.asarray(event, dtype=bool)[None, :])[0].tobytes()


def perm_graph_bits(perm: Sequence[int], domain: ProductDomain) -> np.ndarray:
    """Dense indicator of the permutation graph ``{(i, perm[i])}`` on ``[n]^2``."""
    n = domain.sizes[0]
    bits = np.zeros(domain.n_points, dtype=bool)
    idx = np.arange(n, dtype=np.int64) * domain.sizes[1] + np.asarray(perm, np.int64)
    bits[idx] = True
    return bits


class SetFamily:
    """Base class; concrete families implement member enumeration."""

    domain: ProductDomain

    def member_count(self):
        """Exact member count when known without enumeration, else None."""
        return None

    def members_matrix(self) -> np.ndarray:
        """Deduplicated ``(M, n_points)`` boolean member matrix."""
        raise NotEnumerableError("not enumerable")

    def materialize(self) -> "ExplicitFamily":
        return ExplicitFamily(self.domain, self.members_matrix(), _dedup=False)

    def restrict_to_line(self, line: AxisLine) -> "ExplicitFamily":
        """Deduplicated family of member restrictions, as subsets of the line."""
        pts = line.points(self.domain)
        flat = self.domain.flat_index(pts)
        members = self.members_matrix()[:, flat]
        return ExplicitFamily(_line_domain(self.domain, line.axis), members)

    def structural_lvc(self):
        """Known-by-construction linear VC dimension, else None."""
        return None

    def describe(self) -> str:
        return f"{type(self).__name__}({self.domain.describe()})"


def _line_domain(domain: ProductDomain, axis: int) -> ProductDomain:
    return ProductDomain([domain.axes[axis]])


class ExplicitFamily(SetFamily):
    """A family given by an explicit list of dense members."""

    def __init__(self, domain: ProductDomain, members, _dedup: bool = True):
        members = np.asarray(members, dtype=bool)
        if members.ndim == 1:
            members = members.reshape(1, -1)
        if members.shape[0] == 0:
            raise ValueError("empty family")
        if members.shape[1] != domain.n_points:
            raise ValueError(
                f"member length {members.shape[1]} != domain size {domain.n_points}"
            )
        if members.shape[0] > MAX_MEMBERS:
            raise CapExceededError("family too large")
        if _dedup:
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


class OracleFamily(SetFamily):
    """A family given by a membership oracle.

    ``membership(member_key, points)`` evaluates one member on a point array.
    ``members`` optionally enumerates member keys; ``trace_enumerator(grid)``
    optionally yields the distinct traces directly, as ``trace_of`` bytes.
    """

    def __init__(
        self,
        domain: ProductDomain,
        membership: Callable[[object, np.ndarray], np.ndarray],
        members: Iterable[object] | None = None,
        trace_enumerator: Callable[[Grid], Iterable[bytes]] | None = None,
    ):
        self.domain = domain
        self.membership = membership
        self._members = list(members) if members is not None else None
        self.trace_enumerator = trace_enumerator

    def member_count(self):
        return None if self._members is None else len(self._members)

    def members_matrix(self) -> np.ndarray:
        if self._members is None:
            raise NotEnumerableError("not enumerable")
        if len(self._members) > MAX_MEMBERS:
            raise CapExceededError("family too large")
        pts = self.domain.all_points()
        rows = [
            np.asarray(self.membership(key, pts), dtype=bool)
            for key in self._members
        ]
        return _dedup_rows(np.array(rows, dtype=bool))


class PermutationGraphs(SetFamily):
    """All sets ``{(i, pi(i)) : i in [n]}`` on ``[n] x [n]``.

    Every member meets every axis-parallel line in exactly one point, so the
    family restricted to any line is the n singletons and its linear VC
    dimension is 1.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.domain = ProductDomain.of_sizes(n, n)

    def member_count(self) -> int:
        return math.factorial(self.n)

    def perms(self) -> np.ndarray:
        if self.member_count() > MAX_MEMBERS:
            raise CapExceededError("family too large")
        return np.array(list(itertools.permutations(range(self.n))), dtype=np.int64)

    def members_matrix(self) -> np.ndarray:
        perms = self.perms()
        rows = np.repeat(np.arange(self.n, dtype=np.int64)[None, :], len(perms), 0)
        flat = rows * self.n + perms
        members = np.zeros((len(perms), self.domain.n_points), dtype=bool)
        np.put_along_axis(members, flat, True, axis=1)
        return members

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        # exactly-one-per-line structure: the restrictions are the singletons
        members = np.eye(self.n, dtype=bool)
        return ExplicitFamily(_line_domain(self.domain, line.axis), members)

    def structural_lvc(self) -> int:
        return 1

    def describe(self) -> str:
        return f"permutation-graphs(n={self.n})"


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
        if n_tuples > MAX_MEMBERS:
            raise CapExceededError("family too large")
        graphs = base.members_matrix()
        members = [np.zeros(self.domain.n_points, dtype=bool)]
        for r in range(1, self.g + 1):
            for combo in itertools.combinations(range(len(graphs)), r):
                members.append(np.logical_or.reduce(graphs[list(combo)]))
        return _dedup_rows(np.array(members, dtype=bool))

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        # restrictions are exactly the subsets of the line of size <= g
        n = self.n
        members = [np.zeros(n, dtype=bool)]
        for r in range(1, min(self.g, n) + 1):
            for combo in itertools.combinations(range(n), r):
                row = np.zeros(n, dtype=bool)
                row[list(combo)] = True
                members.append(row)
        return ExplicitFamily(
            _line_domain(self.domain, line.axis), np.array(members, dtype=bool)
        )

    def structural_lvc(self) -> int:
        return min(self.g, self.n)

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
        pts = self.domain.all_points()
        x = pts[:, self.axis]
        n = self.domain.sizes[self.axis]
        members = [np.zeros(self.domain.n_points, dtype=bool)]
        for a in range(n):
            for b in range(a, n):
                members.append((x >= a) & (x <= b))
        return _dedup_rows(np.array(members, dtype=bool))

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        n_line = self.domain.sizes[line.axis]
        if line.axis == self.axis:
            members = [np.zeros(n_line, dtype=bool)]
            idx = np.arange(n_line)
            for a in range(n_line):
                for b in range(a, n_line):
                    members.append((idx >= a) & (idx <= b))
        else:
            # off-axis: each member restricts to the empty set or the full line
            members = [np.zeros(n_line, dtype=bool), np.ones(n_line, dtype=bool)]
        return ExplicitFamily(
            _line_domain(self.domain, line.axis), np.array(members, dtype=bool)
        )

    def structural_lvc(self) -> int:
        return min(2, self.domain.sizes[self.axis])

    def describe(self) -> str:
        return f"intervals(axis={self.axis}, {self.domain.describe()})"


class AxisBoxes(SetFamily):
    """Axis-parallel boxes: products of per-axis intervals, plus the empty set."""

    def __init__(self, domain: ProductDomain):
        self.domain = domain

    def member_count(self) -> int:
        return 1 + math.prod(n * (n + 1) // 2 for n in self.domain.sizes)

    def members_matrix(self) -> np.ndarray:
        if self.member_count() > MAX_MEMBERS:
            raise CapExceededError("family too large")
        # boxes in lexicographic order of their per-axis intervals (a, b),
        # a <= b, as outer products of the interval masks, one axis at a time;
        # distinct intervals give distinct nonempty boxes, so no row repeats
        boxes = np.ones((1, 1), dtype=bool)
        for n in self.domain.sizes:
            lo, hi = np.triu_indices(n)
            idx = np.arange(n)
            intervals = (idx >= lo[:, None]) & (idx <= hi[:, None])
            boxes = (boxes[:, None, :, None] & intervals[None, :, None, :]).reshape(
                boxes.shape[0] * lo.size, -1
            )
        return np.vstack([np.zeros((1, self.domain.n_points), dtype=bool), boxes])

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        # a box meets a line in an interval (or misses it entirely)
        return IntervalsOnAxis(self.domain, line.axis).restrict_to_line(line)

    def structural_lvc(self) -> int:
        return min(2, max(self.domain.sizes))

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
        if 2**n > MAX_MEMBERS:
            raise CapExceededError("family too large")
        return code_bits(np.arange(2**n, dtype=np.int64), n).astype(bool)

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        n_line = self.domain.sizes[line.axis]
        return ExplicitFamily(
            _line_domain(self.domain, line.axis),
            PowerSetFamily(ProductDomain.of_sizes(n_line)).members_matrix(),
        )

    def structural_lvc(self) -> int:
        return max(self.domain.sizes)

    def describe(self) -> str:
        return f"power-set({self.domain.describe()})"


class CylinderSets(SetFamily):
    """Events on ``{0,1}^d`` determined by the first ``prefix`` coordinates."""

    def __init__(self, d: int, prefix: int):
        if not 1 <= prefix <= d:
            raise ValueError("need 1 <= prefix <= d")
        self.d = d
        self.prefix = prefix
        self.domain = ProductDomain.of_sizes(*([2] * d))

    def member_count(self) -> int:
        return 2 ** (2**self.prefix)

    def members_matrix(self) -> np.ndarray:
        if self.member_count() > MAX_MEMBERS:
            raise CapExceededError("family too large")
        pts = self.domain.all_points()
        prefix_code = pts[:, : self.prefix] @ (
            1 << np.arange(self.prefix - 1, -1, -1, dtype=np.int64)
        )
        n_codes = 2**self.prefix
        bases = np.arange(2**n_codes, dtype=np.int64)
        base_sets = code_bits(bases, n_codes).astype(bool)
        return base_sets[:, prefix_code]

    def restrict_to_line(self, line: AxisLine) -> ExplicitFamily:
        n_line = 2
        dom = _line_domain(self.domain, line.axis)
        if line.axis < self.prefix:
            # the prefix pattern varies along the line: full power set of it
            return ExplicitFamily(
                dom, PowerSetFamily(ProductDomain.of_sizes(n_line)).members_matrix()
            )
        members = np.array(
            [np.zeros(n_line, dtype=bool), np.ones(n_line, dtype=bool)]
        )
        return ExplicitFamily(dom, members)

    def structural_lvc(self) -> int:
        return 2

    def describe(self) -> str:
        return f"cylinder-sets(d={self.d}, prefix={self.prefix})"


def symdiff_family(family: SetFamily) -> ExplicitFamily:
    """All pairwise symmetric differences ``A xor B``, deduplicated.

    Always contains the empty set (A xor A).  Requires an explicit
    representation within the member cap.
    """
    members = family.members_matrix()
    m, n = members.shape
    if m * m > MAX_MEMBERS:
        raise CapExceededError("family too large")
    # packing commutes with xor: xored member keys are the differences' keys
    keys = row_keys(members)
    packed = keys.view(np.uint8).reshape(m, -1)
    xors = np.unique((packed[:, None, :] ^ packed[None, :, :]).view(keys.dtype))
    rows = np.unpackbits(xors.view(np.uint8).reshape(xors.size, -1), axis=1, count=n)
    return ExplicitFamily(family.domain, rows, _dedup=False)


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
    domain = None
    members = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if domain is None:
                parts = line.split()
                if parts[0] != "domain" or not "".join(parts[1:]).isdigit():
                    raise ValueError(f"line {lineno}: expected 'domain d n_1 ... n_d'")
                d, *sizes = map(int, parts[1:])
                if len(sizes) != d:
                    raise ValueError(f"line {lineno}: expected {d} axis sizes")
                domain = ProductDomain.of_sizes(*sizes)
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"line {lineno}: member is not a 0/1 string")
            if len(line) != domain.n_points:
                raise ValueError(
                    f"line {lineno}: member length {len(line)} != {domain.n_points}"
                )
            members.append([c == "1" for c in line])
    if domain is None:
        raise ValueError("missing 'domain' header")
    if not members:
        raise ValueError("no members after the 'domain' header")
    return ExplicitFamily(domain, np.array(members, dtype=bool))
