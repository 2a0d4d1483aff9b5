"""Estimators for event probabilities and their uniform deviations.

Four estimators share one core, a weight per domain point: the empirical
mean (point counts), the empirical product of marginals, the exact
distribution (the zero-deviation reference), and the two-phase product-grid
estimator (grid from the first subsample, phase-2 cell counts from the
second).  The product-grid estimator departs from the core in one place: off
the full grid it answers by trace lookup.  Sup-deviations over
permutation-graph families are computed exactly by max-weight assignment;
explicit families are checked by full enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import (
    MAX_CELLS,
    CapExceededError,
    Grid,
    NotEnumerableError,
    ProductDomain,
    build_grid,
    row_keys,
)
from .distributions import Distribution, Modulus, ProductDistribution
from .families import PermutationGraphs, SetFamily


# -- sample-size planners ------------------------------------------------------


@dataclass(frozen=True)
class SamplingPlan:
    """Accuracy / confidence targets plus the structural inputs of the planners.

    ``split`` optionally pins (m0, m1) directly, bypassing the planner's
    phase-2 sufficiency check; otherwise m0 = phase1_size(plan) and the
    remainder of the sample is phase 2.
    """

    epsilon: float
    delta: float
    lvc: int
    width: int
    modulus: Modulus
    c0: float = 1.0
    split: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.lvc < 1 or self.width < 1:
            raise ValueError("need lvc >= 1 and width >= 1")
        if self.split is not None:
            m0, m1 = self.split
            if m0 < 1 or m1 < 1:
                raise ValueError("split sizes must be positive")


def phase1_size(plan: SamplingPlan) -> int:
    """Grid-phase sample size: ``C0 d^2 / beta(eps/2)^2 (g + ln(1/delta))``."""
    beta = plan.modulus(plan.epsilon / 2.0)
    beta_sq = beta * beta
    if beta_sq <= 0.0:
        raise ValueError("modulus vanished at epsilon/2")
    value = (
        plan.c0
        * plan.width**2
        / beta_sq
        * (plan.lvc + math.log(1.0 / plan.delta))
    )
    return math.ceil(value)


def phase2_size(epsilon: float, delta: float, class_count: int) -> int:
    """Estimation-phase size: ``(2/eps^2) ln(4 * class_count / delta)``."""
    if class_count < 1:
        raise ValueError("need at least one trace class")
    return math.ceil(2.0 / epsilon**2 * math.log(4.0 * class_count / delta))


def product_case_size(
    epsilon: float, delta: float, g: int, d: int, constant: float = 1.0
) -> int:
    """Product-distribution sample size: ``C d^2 / eps^2 (g + ln(1/delta))``."""
    return math.ceil(constant * d**2 / epsilon**2 * (g + math.log(1.0 / delta)))


# -- basic estimators ----------------------------------------------------------
#
# Every estimator but the explicit product-grid one is a weight per domain
# point: ``estimate_many(members)`` is ``members @ weights``, divided by the
# sample size when the weights are counts.  ``estimate(event)`` is that answer
# on the event's one row.


def _member_rows(members, domain: ProductDomain) -> np.ndarray:
    """A dense ``(k, n_points)`` boolean member matrix, checked against the domain."""
    members = np.asarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != domain.n_points:
        raise ValueError(f"need a (k, {domain.n_points}) member matrix")
    return members


def _event_row(event, domain: ProductDomain) -> np.ndarray:
    """The event as a one-row member matrix; a predicate is evaluated on all points."""
    bits = event(domain.all_points()) if callable(event) else event
    return _member_rows(np.reshape(bits, (1, -1)), domain)


def _check_tabulable(domain: ProductDomain) -> None:
    if domain.n_points > MAX_CELLS:
        raise CapExceededError(
            f"domain has {domain.n_points} points, exceeds cap {MAX_CELLS}"
        )


def empirical_mean(sample: np.ndarray, event, domain: ProductDomain) -> float:
    """Fraction of sample points inside the event."""
    sample = np.asarray(sample, dtype=np.int64)
    if sample.size == 0:
        raise ValueError("empty sample")
    if callable(event):
        return float(np.mean(np.asarray(event(sample), dtype=bool)))
    bits = np.asarray(event, dtype=bool)
    return float(np.mean(bits[domain.flat_index(sample)]))


class _CellWeightEstimator:
    """An estimator given by one weight per domain point, in canonical order.

    With a ``total`` the weights are integer counts: the counts in the event
    are summed first and then divided, so a count mean is exact.
    Probability weights have no total.
    """

    def __init__(
        self, domain: ProductDomain, weights: np.ndarray, total: int | None = None
    ):
        if total is not None:
            # float64 sums of integer counts below 2**53 are exact, and a
            # float product runs on BLAS where an integer one does not
            weights = weights.astype(np.float64)
        weights.flags.writeable = False
        self.domain = domain
        self.weights = weights
        self.total = total

    def estimate(self, event) -> float:
        return float(self.estimate_many(_event_row(event, self.domain))[0])

    def estimate_many(self, members: np.ndarray) -> np.ndarray:
        """``estimate`` on every row of a dense ``(k, n_points)`` member matrix."""
        values = _member_rows(members, self.domain) @ self.weights
        return values if self.total is None else values / self.total

    def cell_weights(self) -> np.ndarray | None:
        """The weights as an ``n x n`` matrix on width-2 domains, else None."""
        if self.domain.width != 2:
            return None
        weights = self.weights.reshape(self.domain.sizes)
        return weights if self.total is None else weights / self.total


class EmpiricalMeanEstimator(_CellWeightEstimator):
    """The empirical mean: the sample's point counts over its size."""

    name = "empirical-mean"

    def __init__(self, sample: np.ndarray, domain: ProductDomain):
        sample = domain.validate_points(np.asarray(sample, dtype=np.int64))
        if sample.shape[0] == 0:
            raise ValueError("empty sample")
        _check_tabulable(domain)
        counts = np.bincount(domain.flat_index(sample), minlength=domain.n_points)
        super().__init__(domain, counts, sample.shape[0])


class EmpiricalProductEstimator(_CellWeightEstimator):
    """The empirical product of marginals as an estimator.

    It reads a sample only through its per-axis value counts.  ``from_counts``
    is the one build core; the point constructor counts each axis of the
    sample and builds through it.
    """

    name = "empirical-product"

    def __init__(self, sample: np.ndarray, domain: ProductDomain):
        sample = domain.validate_points(np.asarray(sample, dtype=np.int64))
        self._fit([np.bincount(axis, minlength=n) for axis, n in
                   zip(sample.T, domain.sizes)], domain)

    @classmethod
    def from_counts(
        cls, marginal_counts, domain: ProductDomain
    ) -> "EmpiricalProductEstimator":
        """The build core: one nonnegative integer count vector per axis.

        Every vector has its axis's length, and all share one total m >= 1.
        """
        estimator = cls.__new__(cls)
        estimator._fit(marginal_counts, domain)
        return estimator

    def _fit(self, marginal_counts, domain: ProductDomain) -> None:
        counts = [np.asarray(c) for c in marginal_counts]
        if len(counts) != domain.width or any(
            c.shape != (n,) or c.dtype.kind not in "iu" or np.any(c < 0)
            for c, n in zip(counts, domain.sizes)
        ):
            raise ValueError(
                f"need one nonnegative integer count vector per axis of {domain.sizes}"
            )
        m = int(counts[0].sum())
        if m < 1:
            raise ValueError("empty sample")
        if any(int(c.sum()) != m for c in counts[1:]):
            raise ValueError("marginal counts disagree on the sample size")
        _check_tabulable(domain)
        self.dist = ProductDistribution(domain, [c / m for c in counts])
        super().__init__(
            domain, functools.reduce(np.multiply.outer, self.dist.marginals).ravel()
        )


class ExactEstimator(_CellWeightEstimator):
    """The true distribution viewed as an estimator (zero-deviation reference)."""

    name = "exact"

    def __init__(self, dist: Distribution):
        self.dist = dist
        super().__init__(dist.domain, dist.table().probs)


# -- the product-grid estimator --------------------------------------------------


class ProductGridEstimator(_CellWeightEstimator):
    """The trained two-phase estimator: grid, trace index, query extension.

    Built from the phase-1 grid and the phase-2 cell counts only (see
    ``from_counts``); its weights are those counts, with total m1.  In
    explicit mode the trace index is the sorted array of realized trace keys,
    ``class_keys``; each class answers with the phase-2 mean of its
    representative (the member with the lexicographically smallest canonical
    encoding).  For permutation-graph families whose phase-1 grid covers the
    full domain, every trace class is a singleton and the estimate is the
    phase-2 mean itself: the structured mode.
    """

    name = "product-grid"

    def __init__(
        self,
        grid: Grid,
        cell_counts: np.ndarray,
        class_count: int,
        split: tuple[int, int],
        class_keys: np.ndarray | None = None,
        representatives: np.ndarray | None = None,
    ):
        super().__init__(grid.domain, cell_counts.ravel(), split[1])
        self.grid = grid
        self.class_count = class_count
        self.split = split
        self.class_keys = class_keys
        self.representatives = representatives
        self.class_estimates = (
            None if representatives is None
            else super().estimate_many(representatives)
        )
        for arr in (class_keys, self.class_estimates, representatives):
            if arr is not None:
                arr.flags.writeable = False

    @classmethod
    def from_counts(
        cls,
        grid: Grid,
        cell_counts: np.ndarray,
        family: SetFamily,
        plan: SamplingPlan,
    ) -> "ProductGridEstimator":
        """The build core: phase-1 grid plus phase-2 cell counts.

        ``cell_counts`` has the domain's shape and sums to m1.  With the
        default split the builder refuses a phase 2 too small for the
        realized class count.
        """
        domain = family.domain
        if grid.domain != domain:
            raise ValueError("grid and family live on different domains")
        cell_counts = np.asarray(cell_counts)
        if (
            cell_counts.shape != domain.sizes
            or cell_counts.dtype.kind not in "iu"
            or np.any(cell_counts < 0)
        ):
            raise ValueError(
                f"need nonnegative integer cell counts of shape {domain.sizes}"
            )
        m1 = int(cell_counts.sum())
        if plan.split is not None:
            m0 = plan.split[0]
            if m1 != plan.split[1]:
                raise ValueError(
                    f"phase-2 counts sum to {m1}, plan splits {plan.split}"
                )
        else:
            m0 = phase1_size(plan)
            if m1 < 1:
                raise ValueError("insufficient sample: empty phase 2")

        if isinstance(family, PermutationGraphs) and grid.is_full:
            estimator = cls(grid, cell_counts, family.member_count(), (m0, m1))
        else:
            try:
                members = family.members_matrix()
            except (NotEnumerableError, CapExceededError) as exc:
                raise NotEnumerableError(
                    "family not trace-enumerable within caps"
                ) from exc
            # visit members in the sorted order of their own keys; the first
            # member seen of each trace class is its representative
            order = np.argsort(row_keys(members))
            class_keys, first = np.unique(
                grid.pack_traces(members)[order], return_index=True
            )
            estimator = cls(
                grid,
                cell_counts,
                class_keys.size,
                (m0, m1),
                class_keys=class_keys,
                representatives=members[order[first]],
            )

        if plan.split is None:
            need = phase2_size(plan.epsilon, plan.delta, estimator.class_count)
            if m1 < need:
                raise ValueError(
                    f"insufficient sample: phase 2 needs {need} points for "
                    f"{estimator.class_count} classes, got {m1}"
                )
        return estimator

    @property
    def is_structured(self) -> bool:
        return self.class_keys is None

    def estimate_many(self, members: np.ndarray) -> np.ndarray:
        """The estimate of the representative with each row's trace."""
        members = _member_rows(members, self.domain)
        if self.is_structured:
            return super().estimate_many(self._graphs(members))
        return self.class_estimates[self._class_ids(members)]

    def representative(self, event) -> np.ndarray:
        """Dense bits of the representative of the event's trace class."""
        row = _event_row(event, self.domain)
        if self.is_structured:
            # the full grid makes every trace class a singleton
            return self._graphs(row)[0].copy()
        return self.representatives[self._class_ids(row)[0]]

    def _graphs(self, members: np.ndarray) -> np.ndarray:
        """The rows, checked to be permutation graphs: the traces the family has."""
        n = self.domain.sizes[0]
        graphs = members.reshape(-1, n, n)
        if not (np.all(graphs.sum(axis=1) == 1) and np.all(graphs.sum(axis=2) == 1)):
            raise ValueError("trace not represented")
        return members

    def _class_ids(self, members: np.ndarray) -> np.ndarray:
        """The trace-class id of every row of a checked member matrix."""
        keys = self.grid.pack_traces(members)
        # every id is in range: a key past all but the last class can only be the last
        ids = self.class_keys[:-1].searchsorted(keys)
        if self.class_keys[ids].tobytes() != keys.tobytes():
            raise ValueError("trace not represented")
        return ids

    def cell_weights(self) -> np.ndarray | None:
        return super().cell_weights() if self.is_structured else None

    def describe(self) -> str:
        return (
            f"product-grid(grid={self.grid.sizes}, classes={self.class_count}, "
            f"split={self.split})"
        )


def build_product_grid_estimator(
    sample: np.ndarray, family: SetFamily, plan: SamplingPlan
) -> ProductGridEstimator:
    """Train the two-phase estimator on a single i.i.d. sample.

    The first m0 points build the grid; the rest are reserved for estimation
    and never touch the grid.  With the default split the builder refuses
    samples too small for phase 2 at the realized class count.  The points
    are reduced to the grid and the phase-2 cell counts, and handed to
    ``ProductGridEstimator.from_counts``.
    """
    domain = family.domain
    sample = domain.validate_points(np.asarray(sample, dtype=np.int64))
    if plan.split is not None:
        m0, m1 = plan.split
        if sample.shape[0] < m0 + m1:
            raise ValueError(
                f"insufficient sample: need m0+m1 = {m0 + m1}, got {sample.shape[0]}"
            )
    else:
        m0 = phase1_size(plan)
        m1 = sample.shape[0] - m0
        if m1 < 1:
            raise ValueError(
                f"insufficient sample: phase 1 alone needs {m0} points"
            )
    _check_tabulable(domain)
    s1_flat = domain.flat_index(sample[m0 : m0 + m1])
    counts = np.bincount(s1_flat, minlength=domain.n_points).reshape(domain.sizes)
    return ProductGridEstimator.from_counts(
        build_grid(sample[:m0], domain), counts, family, plan
    )


# -- uniform deviations ----------------------------------------------------------


def max_assignment_value(weights: np.ndarray) -> float:
    """Maximum total weight of a perfect matching (exact, via scipy)."""
    # imported here: scipy.optimize dominates the package's import time
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def sup_deviation(
    estimator, family: SetFamily, dist: Distribution, method: str = "auto"
) -> float:
    """Exact ``sup_F |estimate(F) - P(F)|`` over the family.

    ``assignment`` requires a permutation-graph family and an estimator whose
    value on a graph decomposes into per-cell weights; the two signed sides
    are solved as max-weight matchings.  ``enumerate`` evaluates every member
    of an explicitly enumerable family.
    """
    if method == "auto":
        if (
            isinstance(family, PermutationGraphs)
            and getattr(estimator, "cell_weights", None) is not None
            and estimator.cell_weights() is not None
        ):
            method = "assignment"
        else:
            method = "enumerate"
    if method == "assignment":
        if not isinstance(family, PermutationGraphs):
            raise ValueError("method inapplicable: family is not permutation graphs")
        weights = estimator.cell_weights()
        if weights is None:
            raise ValueError("method inapplicable: estimator has no cell weights")
        diff = weights - ExactEstimator(dist).cell_weights()
        upper = max_assignment_value(diff)
        lower = max_assignment_value(-diff)
        return max(upper, lower)
    if method == "enumerate":
        members = family.members_matrix()
        truth = ExactEstimator(dist).estimate_many(members)
        gaps = np.abs(estimator.estimate_many(members) - truth)
        return float(np.max(gaps, initial=0.0))
    raise ValueError(f"unknown method {method!r}")


def check_grid_hitting(
    family: SetFamily, grid: Grid, dist: Distribution, eps: float
) -> list[tuple[int, int]]:
    """All member pairs with ``P(F xor F') >= eps`` missed entirely by the grid.

    An empty list certifies the hitting property for this grid draw.  Pairs
    are indices into the family's member matrix, i < j, in sorted order.

    The grid misses ``F xor F'`` exactly when the two members have the same
    trace, so only pairs inside one trace class are weighed.
    """
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


# -- deviation reports -------------------------------------------------------------


@dataclass
class DeviationReport:
    """Per-trial sup-deviation statistics with reproducibility metadata."""

    estimator: str
    family: str
    distribution: str
    trials: int
    seed: int
    deviations: list[float] = field(default_factory=list)
    mean: float = 0.0
    q50: float = 0.0
    q90: float = 0.0
    q99: float = 0.0
    wall_ms: float = 0.0

    @classmethod
    def from_deviations(
        cls,
        estimator: str,
        family: str,
        distribution: str,
        seed: int,
        deviations: np.ndarray,
        wall_ms: float = 0.0,
    ) -> "DeviationReport":
        deviations = np.asarray(deviations, dtype=float)
        if not np.all((deviations >= 0) & (deviations <= 1)):
            raise ValueError("deviations must lie in [0, 1]")
        q50, q90, q99 = np.quantile(deviations, [0.5, 0.9, 0.99])
        return cls(
            estimator=estimator,
            family=family,
            distribution=distribution,
            trials=int(deviations.size),
            seed=int(seed),
            deviations=[float(v) for v in deviations],
            mean=float(deviations.mean()),
            q50=float(q50),
            q90=float(q90),
            q99=float(q99),
            wall_ms=float(wall_ms),
        )

    def to_dict(self) -> dict:
        return asdict(self)
