"""Brute-force references that tests check the library's fast paths against."""

import itertools
from typing import NamedTuple

import numpy as np

from gridest.domain import CapExceededError, code_bits
from gridest.families import _term_potentials

SHATTER_CAP = 20


def brute_mean(sample, event, domain) -> float:
    """Fraction of the sample's points inside a dense event, point by point."""
    bits = np.asarray(event, dtype=bool)
    return float(np.mean(bits[domain.flat_index(np.asarray(sample, dtype=np.int64))]))


def brute_trace(event, grid) -> bytes:
    """A dense event's bits at the grid's cells, in row-major cell order, packed."""
    bits = np.asarray(event, dtype=bool).reshape(grid.domain.sizes)
    cells = itertools.product(*grid.axes)
    return np.packbits(np.array([bits[c] for c in cells], dtype=bool)).tobytes()


def grid_hitting_pairs(family, grid, dist, eps) -> list[tuple[int, int]]:
    """``check_grid_hitting`` by trace labels: ``np.unique`` of the members'
    ``pack_traces`` keys with inverse and counts, then, for each label held
    by two or more members, a scan of every label for its members, whose
    pairs are weighed with the same float operations as the library's."""
    members = family.members_matrix()
    _, labels, sizes = np.unique(
        grid.pack_traces(members), return_inverse=True, return_counts=True
    )
    probs = dist.table().probs
    pairs = []
    for label in np.flatnonzero(sizes > 1):
        group = np.flatnonzero(labels == label)
        m = members[group].astype(float)
        weighted = m * probs
        single = weighted.sum(axis=1)
        sym_prob = single[:, None] + single[None, :] - 2.0 * (weighted @ m.T)
        ii, jj = np.nonzero(np.triu(sym_prob >= eps, k=1))
        pairs.extend(zip(group[ii].tolist(), group[jj].tolist()))
    return sorted(pairs)


def bit_matrix_event_probabilities(dist) -> np.ndarray:
    """P(E) for every event E, as the 2^n x n matrix of event bitmasks (bit j
    of row e set iff point j is in event e) times the point probabilities."""
    n = dist.domain.n_points
    bits = code_bits(np.arange(2**n, dtype=np.int64), n).astype(float)
    return bits @ dist.table().probs


def bit_weights(n_points: int) -> np.ndarray:
    """The weights ``2**j`` of point j: a row's sum over them is its bits read
    as a binary number, exact in float64 up to 53 points, so equal sums mean
    equal rows."""
    if n_points > 53:
        raise ValueError(f"{n_points} points: 2**j sums are exact up to 53")
    return 2.0 ** np.arange(n_points)


def representative_rows(index, members) -> np.ndarray:
    """The rows a trace index sums over for each query, read back from its
    ``sums`` with ``bit_weights``."""
    n_points = members.shape[1]
    codes = index.sums(members, bit_weights(n_points)).astype(np.int64)
    return (codes[:, None] >> np.arange(n_points)) & 1 == 1


def shatters(family, points) -> bool:
    """True iff every labeling of ``points`` is realized by some member of
    the family, read off its member matrix."""
    points = [tuple(p) for p in points]
    if len(points) > SHATTER_CAP:
        raise CapExceededError(f"cannot check shattering of {len(points)} points")
    if len(set(points)) != len(points):
        return False
    if not points:
        return True  # every nonempty family realizes the empty labeling
    flat = family.domain.flat_index(np.array(points, dtype=np.int64))
    patterns = {row.tobytes() for row in family.members_matrix()[:, flat]}
    return len(patterns) == 2 ** len(points)


def assignment_certificate(weights, cols) -> tuple[float, float, float]:
    """An LP-dual certificate that the perfect matching ``i -> cols[i]`` of a
    square weight matrix has maximum total weight.

    Column potentials ``v`` come from Bellman-Ford on the difference
    constraints ``v[cols[i]] - v[j] <= W[i, cols[i]] - W[i, j]``, and
    ``u[i] = W[i, cols[i]] - v[cols[i]]``.  Then ``(u, v)`` is feasible for the
    dual LP when every slack ``u[i] + v[j] - W[i, j]`` is >= 0, and its
    objective ``sum(u) + sum(v)`` equals the matching's value by
    construction, so a feasible pair proves the matching optimal.  Returns
    the value, the smallest slack and the duality gap; the matching is
    certified within ``tol`` when the slack is >= -tol and the gap <= tol.
    """
    w = np.asarray(weights, dtype=float)
    cols = np.asarray(cols)
    n = w.shape[0]
    if w.shape != (n, n) or sorted(cols.tolist()) != list(range(n)):
        raise ValueError("need a square matrix and a permutation of its columns")
    matched = w[np.arange(n), cols]
    cost = matched[:, None] - w  # row i: the edge j -> cols[i] and its length
    v = np.zeros(n)  # a virtual source at distance 0 from every column
    for _ in range(n):  # a shortest path has fewer than n edges
        relaxed = np.minimum(v[cols], (v[None, :] + cost).min(axis=1))
        if np.array_equal(relaxed, v[cols]):
            break
        v[cols] = relaxed
    u = matched - v[cols]
    value = float(matched.sum())
    slack = float((u[:, None] + v[None, :] - w).min())
    return value, slack, abs(float(u.sum() + v.sum()) - value)


def column_potentials(weights, terms, sign) -> np.ndarray:
    """The column potentials ``PermutationGraphs.max_abs_sum`` warm-starts a
    solve of ``weights``, ``sign`` times the sum of the terms' outer
    products, with: the terms' potentials ``v`` (``_term_potentials``),
    reduced once against the weights, ``u = max_j (W - v)`` per row, then
    ``max_i (W - u)`` per column."""
    v = _term_potentials(terms, weights.shape[1])[0 if sign > 0 else 1]
    u = (weights - v).max(axis=1)
    return (weights - u[:, None]).max(axis=0)


class WarmSide(NamedTuple):
    """One signed side of the warm assignment: its weights ``W``, the column
    potentials ``v`` it is solved with, the value of the LP dual they give,
    ``bound``, and the two bounds ``max_abs_sum`` reads, ``unreduced`` and
    ``reduced``."""

    weights: np.ndarray
    potentials: np.ndarray
    bound: float
    unreduced: float
    reduced: float


def warm_dual_sides(diff, terms) -> list[WarmSide]:
    """Both signed sides of the warm assignment on ``diff``, side 0 first.

    Each side's weights ``W`` are ``diff``, then ``-diff``; ``v`` are the
    column potentials the library computes for W from ``terms``, and
    ``bound = sum_i max_j (W - v) + sum(v)`` bounds every matching's total
    weight on W (weak duality).  With ``t`` the terms' own potentials before
    the column reduction and ``u = max_j (W - t)``, ``unreduced`` is
    ``sum(u) + sum(t)`` and ``reduced`` is ``sum(u) + sum(v)``: both are
    feasible duals too, since ``v = max_i (W - u)``.
    """
    sides = []
    term_potentials = _term_potentials(terms, diff.shape[1])
    for sign, weights, t in zip((1.0, -1.0), (diff, -diff), term_potentials):
        v = column_potentials(weights, terms, sign)
        u = (weights - t).max(axis=1)
        sides.append(WarmSide(
            weights, v, float((weights - v).max(axis=1).sum() + v.sum()),
            float(u.sum() + t.sum()), float(u.sum() + v.sum()),
        ))
    return sides
