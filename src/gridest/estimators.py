"""Estimators for event probabilities and their uniform deviations.

Four estimators share one core, a weight per domain point: the empirical
mean (point counts), the empirical product of marginals, the exact
distribution (the zero-deviation reference), and the two-phase product-grid
estimator (grid from the first subsample, phase-2 cell counts from the
second).  The product-grid estimator departs from the core in one place:
the family's trace index on the grid (``SetFamily.trace_index``) answers
its sums, over each query's trace class's representative.
Sup-deviations over a family with an exact maximizer
(``SetFamily.max_abs_sum``; permutation graphs: max-weight assignment) are
computed by it; explicit families are checked by full enumeration.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .domain import (Grid, ProductDomain, check_marginal_counts, event_row,
                     grid_from_counts, member_rows, row_sums)
from .distributions import Distribution, Modulus, ProductDistribution
from .families import ExplicitTraceIndex, SetFamily


# -- sample-size planners ------------------------------------------------------


def _check_accuracy(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")


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
        _check_accuracy(self.epsilon, self.delta)
        if self.lvc < 1 or self.width < 1:
            raise ValueError("need lvc >= 1 and width >= 1")
        if self.split is not None:
            m0, m1 = self.split
            if m0 < 1 or m1 < 1:
                raise ValueError("split sizes must be positive")


def _planned_size(value: float, name: str, knob: str, constant: float) -> int:
    """The planners' one size check: ``ceil(value)``, or ``ValueError`` if
    ``value`` is not finite or the size is below 1."""
    if not math.isfinite(value):
        raise ValueError(f"{name} size is not finite: {value!r}")
    size = math.ceil(value)
    if size < 1:
        raise ValueError(f"{name} size is {size} ({knob} = {constant!r}): need >= 1")
    return size


def phase1_size(plan: SamplingPlan) -> int:
    """Grid-phase sample size: ``ceil(C0 d^2 / beta(eps/2)^2 (g + ln(1/delta)))``."""
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
    return _planned_size(value, "phase-1", "c0", plan.c0)


def phase2_size(epsilon: float, delta: float, class_count: int) -> int:
    """Estimation-phase size: ``(2/eps^2) ln(4 * class_count / delta)``."""
    _check_accuracy(epsilon, delta)
    if class_count < 1:
        raise ValueError("need at least one trace class")
    # math.log takes an int of any size, where the float 4 * count overflows
    return math.ceil(
        2.0 / epsilon**2 * (math.log(class_count) + math.log(4.0 / delta))
    )


def product_case_size(
    epsilon: float, delta: float, g: int, d: int, constant: float = 1.0
) -> int:
    """Product-distribution sample size: ``ceil(C d^2 / eps^2 (g + ln(1/delta)))``."""
    _check_accuracy(epsilon, delta)
    value = constant * d**2 / epsilon**2 * (g + math.log(1.0 / delta))
    return _planned_size(value, "product-case", "constant", constant)


# -- basic estimators ----------------------------------------------------------
#
# Every estimator is a weight per domain point: ``estimate_many(members)`` is
# ``members @ weights``, divided by the sample size when the weights are
# counts; for the product-grid estimator the trace index answers the sums,
# over each row's trace class's representative.  ``estimate(event)`` is that
# answer on the event's one row.


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
        return float(self.estimate_many(event_row(event, self.domain))[0])

    def estimate_many(self, members: np.ndarray) -> np.ndarray:
        """``estimate`` on every row of a dense ``(k, n_points)`` member matrix."""
        values = row_sums(member_rows(members, self.domain), self.weights)
        return values if self.total is None else values / self.total

    def cell_weights(self) -> np.ndarray:
        """The weights shaped like the domain."""
        weights = self.weights.reshape(self.domain.sizes)
        return weights if self.total is None else weights / self.total


class EmpiricalMeanEstimator(_CellWeightEstimator):
    """The empirical mean: the sample's point counts over its size."""

    def __init__(self, sample: np.ndarray, domain: ProductDomain):
        sample = domain.validate_points(sample)
        if sample.shape[0] == 0:
            raise ValueError("empty sample")
        super().__init__(domain, domain.cell_counts(sample).ravel(), sample.shape[0])


class EmpiricalProductEstimator(_CellWeightEstimator):
    """The empirical product of marginals as an estimator.

    It reads a sample only through its per-axis value counts.  ``from_counts``
    is the one build core; the point constructor counts each axis of the
    sample and builds through it.  ``marginals`` holds the read-only
    empirical marginals, the checked counts over their total.
    """

    def __init__(self, sample: np.ndarray, domain: ProductDomain):
        sample = domain.validate_points(sample)
        self._fit(domain.axis_counts(sample), domain)

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
        counts, m, _ = check_marginal_counts(marginal_counts, domain)
        domain.check_tabulable()
        self.marginals = tuple(c / m for c in counts)
        for p in self.marginals:
            p.flags.writeable = False
        super().__init__(
            domain, functools.reduce(np.multiply.outer, self.marginals).ravel()
        )


class ExactEstimator(_CellWeightEstimator):
    """The true distribution viewed as an estimator (zero-deviation reference)."""

    def __init__(self, dist: Distribution):
        super().__init__(dist.domain, dist.table().probs)


# -- the product-grid estimator --------------------------------------------------


class ProductGridEstimator(_CellWeightEstimator):
    """The trained two-phase estimator: grid, trace index, query extension.

    Built from the phase-1 grid and the phase-2 cell counts only (see
    ``from_counts``); its weights are those counts, and its ``total`` is
    their sum m1.  The trace index is the family's on the grid
    (``SetFamily.trace_index``): a structured one where the family knows its
    traces, else ``ExplicitTraceIndex`` over the enumerated members.  It
    counts the classes and answers ``sums(members, weights)``, the phase-2
    counts over each query's class's representative, divided here by m1.
    """

    def __init__(self, grid: Grid, cell_counts: np.ndarray, trace_index, m1: int):
        super().__init__(grid.domain, cell_counts.ravel(), m1)
        self.grid = grid
        self.trace_index = trace_index
        self.class_count = trace_index.class_count

    @classmethod
    def from_counts(
        cls, grid: Grid, cell_counts: np.ndarray, family: SetFamily, plan: SamplingPlan
    ) -> "ProductGridEstimator":
        """The build core: phase-1 grid plus phase-2 cell counts.

        ``cell_counts`` has the domain's shape and sums to m1.  With the
        default split the builder refuses a phase 2 too small for the
        realized class count.
        """
        domain = family.domain
        cell_counts = np.asarray(cell_counts)
        if (
            cell_counts.shape != domain.sizes
            or cell_counts.dtype.kind not in "iu"
            or cell_counts.min() < 0
        ):
            raise ValueError(
                f"need nonnegative integer cell counts of shape {domain.sizes}"
            )
        m1 = int(cell_counts.sum())
        # a plan's split sizes are positive
        if plan.split is not None and m1 != plan.split[1]:
            raise ValueError(f"phase-2 counts sum to {m1}, plan splits {plan.split}")
        if m1 < 1:
            raise ValueError("insufficient sample: empty phase 2")

        estimator = cls(grid, cell_counts, family.trace_index(grid), m1)
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
        """Whether the index is not an ``ExplicitTraceIndex``: the library
        does not read it; perfbench's build observer and tests do."""
        return not isinstance(self.trace_index, ExplicitTraceIndex)

    def estimate_many(self, members: np.ndarray) -> np.ndarray:
        """The phase-2 mean of each row's trace class, as the index sums it."""
        members = member_rows(members, self.domain)
        return self.trace_index.sums(members, self.weights) / self.total

    def cell_weights(self) -> np.ndarray | None:
        """The phase-2 means on a full grid, where every query is its own
        representative; None on a partial grid, where it need not be."""
        return super().cell_weights() if self.grid.is_full else None


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
    sample = domain.validate_points(sample)
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
    counts = domain.cell_counts(sample[m0 : m0 + m1])
    # the points are checked above: the grid comes from their counts
    return ProductGridEstimator.from_counts(
        grid_from_counts(domain.axis_counts(sample[:m0]), domain),
        counts, family, plan,
    )


# -- uniform deviations ----------------------------------------------------------


_LSAP = "scipy.optimize._lsap"


@functools.cache
def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, loaded without ``scipy.optimize``.

    The solver is one extension module, ``scipy/optimize/_lsap``, and
    ``scipy.optimize.linear_sum_assignment`` is its function.  Importing all
    of ``scipy.optimize`` costs ~0.5 s and ~48 MiB RSS per process, so the
    extension is loaded by path under its real name.  A module already
    imported is reused; without the extension the public import is used.
    """
    module = sys.modules.get(_LSAP)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        dirs = scipy_spec and scipy_spec.submodule_search_locations
        found = dirs and importlib.machinery.PathFinder.find_spec(
            "_lsap", [os.path.join(d, "optimize") for d in dirs])
        if not found or not found.origin:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        spec = importlib.util.spec_from_file_location(_LSAP, found.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_LSAP] = module
    return module.linear_sum_assignment


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@functools.cache
def _spread_order(n: int) -> np.ndarray:
    """The rows ``0 .. n-1`` in golden-ratio (Weyl) order, read-only:
    ``argsort(frac(i * 0.618...))``, so every prefix is spread evenly over
    the rows."""
    order = np.argsort((np.arange(n) * _GOLDEN) % 1.0, kind="stable")
    order.flags.writeable = False
    return order


def max_assignment_value(
    weights: np.ndarray, potentials: np.ndarray | None = None, sign: int = 1
) -> float:
    """Maximum total weight of a perfect matching on ``sign * weights``
    (exact, via scipy's solver), for ``sign`` 1 or -1.

    ``potentials``, one per column, are subtracted from the signed weights
    before the solve.  A perfect matching uses every column once, so that
    lowers every matching's total by the same ``sum(potentials)`` and leaves
    the maximizers as they are; the value is ``sign`` times the sum of
    ``weights`` over the matching.  Potentials near an optimal LP dual leave
    the solver less to do.  Only where optimal matchings tie may they pick
    another one, whose sum can differ in the last bits.
    ``PermutationGraphs.max_abs_sum`` bounds each signed side by feasible LP
    duals, and solves a side only when those bounds say it could win.

    The solver minimizes ``potentials - sign * weights``, formed without a
    negated copy of ``weights``: ``-weights`` or ``potentials - weights`` for
    sign 1, ``weights`` itself or ``potentials + weights`` for sign -1.
    Negation is exact, so sign -1 gives the matching and the bits that a
    negated copy of the weights would, but for the sign of a value that
    sums to exactly zero.

    Every solve hands the solver its rows in ``_spread_order``.  The solver
    (shortest augmenting paths) adds rows one at a time; on an empirical
    product's cell differences neighbouring rows have nearly equal mass and
    want the same columns, so in index order each new row re-routes the
    rows just before it, and in spread order it meets rows far from it.
    The matching is mapped back to the natural rows and summed in their
    order, so a unique optimum gives the same bits; where optimal matchings
    tie, the order may pick another one.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    n = weights.shape[0]
    order = _spread_order(n)
    rows = weights.take(order, axis=0)
    if sign > 0:
        cost = -rows if potentials is None else potentials - rows
    else:
        cost = rows if potentials is None else potentials + rows
    _, spread = _linear_sum_assignment()(cost)
    cols = np.empty_like(spread)
    cols[order] = spread
    return float(sign * weights[np.arange(n), cols].sum())


def sup_deviation(
    estimator, family: SetFamily, dist: Distribution, method: str
) -> float:
    """Exact ``sup_F |estimate(F) - P(F)|`` over the family.

    ``method`` is required, ``"assignment"`` or ``"enumerate"``.
    ``assignment`` asks the family's ``max_abs_sum`` for the largest signed
    cell sum (for permutation graphs, two max-weight matchings) and needs an
    estimator whose value on a member decomposes into per-cell weights.
    ``enumerate`` evaluates every member of an explicitly enumerable family.

    When both the estimator (an empirical product, marginals x^, y^) and
    ``dist`` (x, y) are width-2 products, the cell difference
    ``x^ y^T - x y^T`` is handed to the family with its split into the two
    rank-1 terms ``(x^ - x) ((y + y^)/2)^T`` and ``((x^ + x)/2) (y^ - y)^T``.
    The family builds column potentials from them, which warm-start each
    solve (see ``max_assignment_value``) and tighten each signed side's
    LP-dual bounds: at seed 2024 ``deviation-scaling`` makes 1829 solves in
    1400 sup-deviations, where the bounds without terms (the row maxima,
    then their reduced columns) rule out no second solve.  The value is the
    same, found with fewer and faster solves.

    The estimator, the family and ``dist`` must share one domain.
    """
    if not estimator.domain == family.domain == dist.domain:
        raise ValueError(
            "estimator, family and distribution live on different domains"
        )
    if method == "assignment":
        weights = estimator.cell_weights()
        if weights is None:
            raise ValueError("method inapplicable: estimator has no cell weights")
        terms = None
        if (isinstance(estimator, EmpiricalProductEstimator)
                and isinstance(dist, ProductDistribution) and dist.domain.width == 2):
            (xh, yh), (x, y) = estimator.marginals, dist.marginals
            terms = ((xh - x, (y + yh) / 2), ((xh + x) / 2, yh - y))
        return family.max_abs_sum(weights - dist.table().reshaped(), terms)
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
    """Per-trial sup-deviation statistics with reproducibility metadata; the
    run's wall time is ``ScenarioResult.wall_ms``."""

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

    @classmethod
    def from_deviations(
        cls, estimator: str, family: str, distribution: str, seed: int,
        deviations: np.ndarray,
    ) -> "DeviationReport":
        deviations = np.asarray(deviations, dtype=float)
        if not np.all((deviations >= 0) & (deviations <= 1)):
            raise ValueError("deviations must lie in [0, 1]")
        q50, q90, q99 = (float(q) for q in np.quantile(deviations, [0.5, 0.9, 0.99]))
        return cls(
            estimator=estimator, family=family, distribution=distribution,
            trials=int(deviations.size), seed=int(seed),
            deviations=[float(v) for v in deviations], mean=float(deviations.mean()),
            q50=q50, q90=q90, q99=q99,
        )
