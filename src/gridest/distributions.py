"""Finite distributions over product domains.

Covers exact product distributions, mixtures of products, and explicit joint
tables, together with seeded sampling, the box projection (product of
marginals), total correlation, and the moduli of box-continuity used by the
sample-size planners.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (CapExceededError, MAX_CELLS, ProductDomain, check_sizes, code_bits,
                     event_row, row_sums)
from .info import as_pmf, binary_entropy, kl_divergence


class ProductDistribution:
    """A product of per-axis probability vectors over a domain's axes."""

    def __init__(self, domain: ProductDomain, marginals: Sequence):
        if len(marginals) != domain.width:
            raise ValueError("marginal count != domain width")
        cleaned = []
        for i, p in enumerate(marginals):
            # a frozen copy: as_pmf returns a float64 input itself
            p = as_pmf(p).copy()
            if p.size != domain.sizes[i]:
                raise ValueError(f"marginal {i} length != axis size")
            p.flags.writeable = False
            cleaned.append(p)
        self.domain = domain
        self.marginals = tuple(cleaned)
        self._table: JointTable | None = None

    @functools.cached_property
    def marginal_cdfs(self) -> tuple[np.ndarray, ...]:
        """One read-only ``_choice_cdf`` per marginal, computed on first use."""
        return tuple(_choice_cdf(p) for p in self.marginals)

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        return self.table().point_prob(points)

    def table(self) -> "JointTable":
        """The joint table, computed on the first call and kept."""
        if self._table is None:
            self.domain.check_tabulable()
            probs = functools.reduce(np.multiply.outer, self.marginals)
            self._table = JointTable(self.domain, probs.ravel())
        return self._table

    def describe(self) -> str:
        return f"product({self.domain.describe()})"


class MixtureDistribution:
    """A finite mixture of product distributions on a common domain."""

    def __init__(self, weights, components: Sequence[ProductDistribution]):
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        weights = as_pmf(weights).copy()
        if weights.size != len(components):
            raise ValueError("weight count != component count")
        domain = components[0].domain
        if any(c.domain != domain for c in components):
            raise ValueError("components live on different domains")
        weights.flags.writeable = False
        self.domain = domain
        self.weights = weights
        self.components = tuple(components)
        self._table: JointTable | None = None

    @property
    def k(self) -> int:
        return len(self.components)

    @functools.cached_property
    def weight_cdf(self) -> np.ndarray:
        """The read-only ``_choice_cdf`` of the weights, computed on first use."""
        return _choice_cdf(self.weights)

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        return self.table().point_prob(points)

    def table(self) -> "JointTable":
        """The joint table, computed on the first call and kept."""
        if self._table is None:
            probs = np.zeros(self.domain.n_points)
            for w, comp in zip(self.weights, self.components):
                probs += w * comp.table().probs
            self._table = JointTable(self.domain, probs)
        return self._table

    def describe(self) -> str:
        return f"mixture(k={self.k}, {self.domain.describe()})"


class JointTable:
    """A full probability table in the domain's canonical point order."""

    def __init__(self, domain: ProductDomain, probs):
        probs = as_pmf(np.ravel(probs))
        if probs.size != domain.n_points:
            raise ValueError("table size != number of domain points")
        probs.flags.writeable = False
        self.domain = domain
        self.probs = probs

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The read-only ``_choice_cdf`` of the table, computed on first use."""
        return _choice_cdf(self.probs)

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        return self.probs[self.domain.flat_index(self.domain.validate_points(points))]

    def table(self) -> "JointTable":
        return self

    def reshaped(self) -> np.ndarray:
        return self.probs.reshape(self.domain.sizes)

    def describe(self) -> str:
        return f"joint({self.domain.describe()})"


Distribution = ProductDistribution | MixtureDistribution | JointTable


# -- sampling -----------------------------------------------------------------


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The read-only CDF that ``Generator.choice(p.size, p=p)`` draws through:
    ``p.cumsum()`` over its last entry, computed as numpy computes it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices drawn through a ``_choice_cdf``: the same uniforms and
    the same indices as ``rng.choice(cdf.size, size=size, p=p)``, bit for bit."""
    return cdf.searchsorted(rng.random(size), side="right")


def sample(dist: Distribution, m: int, seed) -> np.ndarray:
    """Draw ``m`` i.i.d. points as an ``(m, d)`` index array.

    Deterministic given ``seed`` (an int or a ``numpy.random.SeedSequence``).
    Mixtures draw the component index first, then the coordinates.  Every
    draw goes through a CDF the distribution keeps (``_draw``), so the
    points are those of ``Generator.choice`` with the same probabilities.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty((m, dist.domain.width), dtype=np.int64)
    if isinstance(dist, ProductDistribution):
        for i, cdf in enumerate(dist.marginal_cdfs):
            out[:, i] = _draw(rng, cdf, m)
        return out
    if isinstance(dist, MixtureDistribution):
        comps = _draw(rng, dist.weight_cdf, m)
        for t, comp in enumerate(dist.components):
            mask = comps == t
            count = int(mask.sum())
            if count == 0:
                continue
            for i, cdf in enumerate(comp.marginal_cdfs):
                out[mask, i] = _draw(rng, cdf, count)
        return out
    if isinstance(dist, JointTable):
        flat = _draw(rng, dist.cdf, m)
        return np.stack(
            np.unravel_index(flat, dist.domain.sizes), axis=1
        ).astype(np.int64)
    raise TypeError(f"cannot sample from {type(dist).__name__}")


def sample_counts(dist: Distribution, m: int, seed) -> np.ndarray:
    """Cell counts of ``m`` i.i.d. points, as an integer array of the domain's shape.

    One multinomial draw over the joint table: the law of the counts of
    ``sample(dist, m, ...)`` without drawing the points.  ``seed`` may also be
    a ``numpy.random.Generator``; it is then used as is, so consecutive calls
    on one generator draw the counts of consecutive, independent subsamples.
    Needs a tabulable domain (at most ``MAX_CELLS`` points).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(m, dist.table().probs).reshape(dist.domain.sizes)


def marginal_counts(dist: Distribution, m: int, seed) -> tuple[np.ndarray, ...]:
    """Per-axis value counts of ``m`` i.i.d. points, one integer vector per axis.

    Under a product distribution the axes of i.i.d. points are independent,
    so each axis is one multinomial over its marginal, drawn in axis order
    from one generator.  A mixture of products first draws how many points
    each component gets; given those, each component is a product, so axis
    ``i`` is the sum over components of one multinomial over the component's
    marginal ``i``.  Neither needs the joint table.  A joint table gives the
    axis sums of ``sample_counts``.  ``seed`` may be a
    ``numpy.random.Generator``, used as is.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(dist, ProductDistribution):
        return tuple(rng.multinomial(m, p) for p in dist.marginals)
    if isinstance(dist, MixtureDistribution):
        sizes = rng.multinomial(m, dist.weights)
        return tuple(
            sum(rng.multinomial(size, comp.marginals[i])
                for size, comp in zip(sizes, dist.components))
            for i in range(dist.domain.width)
        )
    return _axis_sums(sample_counts(dist, m, rng))


def _axis_sums(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each axis in order, the sum of a table over all its other axes."""
    axes = range(table.ndim)
    return tuple(table.sum(axis=tuple(j for j in axes if j != i)) for i in axes)


# -- box projection and total correlation -------------------------------------


def box_projection(dist: Distribution) -> ProductDistribution:
    """The product of the exact one-dimensional marginals."""
    if isinstance(dist, ProductDistribution):
        return dist
    return ProductDistribution(dist.domain, _axis_sums(dist.table().reshaped()))


def event_probability(dist: Distribution, event) -> float:
    """Exact probability of an event (dense bits or a point predicate).

    The event's row is checked and summed as ``ExactEstimator.estimate``
    does it, so both give the same number bit for bit.
    """
    return float(row_sums(event_row(event, dist.domain), dist.table().probs)[0])


def total_correlation(joint: JointTable) -> float:
    """KL(P || product of marginals) in nats; finite on finite domains."""
    return max(kl_divergence(joint.probs, box_projection(joint).table().probs), 0.0)


# -- moduli of box-continuity --------------------------------------------------


def mixture_modulus(k: int, d: int, alpha: float) -> float:
    """beta(alpha) = alpha^d / (k - 1 + alpha)^(d-1) for k-mixtures of products."""
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if k == 1:
        return alpha
    return alpha**d / (k - 1 + alpha) ** (d - 1)


def tc_modulus(c_nats: float, alpha: float) -> float:
    """beta(alpha) = exp((-H(alpha) - C) / alpha) for total correlation <= C."""
    if c_nats < 0:
        raise ValueError("total-correlation bound must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return math.exp((-binary_entropy(alpha) - c_nats) / alpha)


@dataclass(frozen=True)
class Modulus:
    """The planners' modulus of box-continuity: ``mixture_modulus(k, d, alpha)``.

    The modulus of k-mixtures of products on d axes; ``identity()`` is k = 1,
    where the modulus is alpha itself (products are box-continuous).
    """

    k: int
    d: int

    def __call__(self, alpha: float) -> float:
        return mixture_modulus(self.k, self.d, alpha)

    @classmethod
    def identity(cls) -> "Modulus":
        return cls(1, 1)


# -- constructions -------------------------------------------------------------


def mixture_tightness_instance(k: int, d: int, alpha: float):
    """The diagonal point-mass mixture showing the mixture modulus is sharp.

    Returns a mixture on ``[k]^d`` and an event E (dense bits) with
    ``P(E) = alpha`` and ``P_box(E) = alpha^d / (k-1)^(d-1)`` exactly.
    """
    if k < 2 or d < 2:
        raise ValueError("need k >= 2 and d >= 2")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    domain = ProductDomain.of_sizes(*([k] * d))
    # component t is the point mass on (t, ..., t)
    components = [ProductDistribution(domain, [one_hot] * d) for one_hot in np.eye(k)]
    weights = np.full(k, alpha / (k - 1))
    weights[k - 1] = 1.0 - alpha
    mixture = MixtureDistribution(weights, components)
    event = np.zeros(domain.n_points, dtype=bool)
    diag = np.array([[t] * d for t in range(k - 1)], dtype=np.int64)
    event[domain.flat_index(diag)] = True
    return mixture, event


def gilbert_varshamov_code(d: int, min_distance: int) -> np.ndarray:
    """A greedy sign-vector code with pairwise Hamming distance >= min_distance.

    Greedy over the lexicographic order of all 2^d sign vectors; the achieved
    rate log2(size)/d is whatever the greedy construction attains, verified
    by the caller.
    """
    if d < 1 or min_distance < 1:
        raise ValueError("need d >= 1 and min_distance >= 1")
    if 2**d > MAX_CELLS:
        raise CapExceededError(f"d = {d} has 2^{d} sign vectors, cap {MAX_CELLS}")
    # word w has bit j of w in column j: the distance of two words is the
    # popcount of their codes' xor
    kept = np.zeros(2**d, dtype=np.int64)
    size = 1
    for w in range(1, 2**d):
        if np.bitwise_count(kept[:size] ^ w).min() >= min_distance:
            kept[size] = w
            size += 1
    return code_bits(kept[:size], d) * 2 - 1


def code_rate(code: np.ndarray) -> float:
    return math.log2(code.shape[0]) / code.shape[1]


def biased_cube_family(d: int, nu: float, code: np.ndarray) -> list[ProductDistribution]:
    """Products ``Ber(1/2 + theta_i nu)`` over ``{0,1}^d``, one per row theta of
    ``code``, an ``(M, d)`` array of +-1 (for example a ``gilbert_varshamov_code``).
    """
    if not 0.0 < nu < 0.25:
        raise ValueError("nu must lie in (0, 1/4)")
    domain = ProductDomain.of_sizes(*([2] * d))
    code = np.asarray(code, dtype=np.int64)
    if code.ndim != 2 or code.shape[1] != d:
        raise ValueError("code must be an (M, d) sign matrix")
    if not np.all(np.abs(code) == 1):
        raise ValueError("code entries must be +-1")
    family = []
    for theta in code:
        marginals = [
            np.array([0.5 - t * nu, 0.5 + t * nu]) for t in theta
        ]  # value 1 has probability 1/2 + theta_i nu
        family.append(ProductDistribution(domain, marginals))
    return family


def exhaustive_event_probabilities(dist: Distribution) -> np.ndarray:
    """P(E) for every event E of the domain, indexed by the event's bitmask.

    Event ``e`` contains point ``j`` (canonical order) iff bit ``j`` of ``e``
    is set, so P(e + 2^j) = P(e) + p_j for e < 2^j (cap 2^20 events).
    """
    n = dist.domain.n_points
    if 2**n > MAX_CELLS:
        raise CapExceededError(f"{n} points have 2^{n} events, cap {MAX_CELLS}")
    table = np.zeros(2**n)
    for j, p in enumerate(dist.table().probs):
        table[1 << j : 2 << j] = table[: 1 << j] + p
    return table


# -- JSON distribution format --------------------------------------------------


def _load_vector(raw, where: str) -> np.ndarray:
    # JSON numbers only: numpy would convert "0.5" and true to probabilities
    numeric = isinstance(raw, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    )
    try:
        p = np.asarray(raw, dtype=float) if numeric else None
    except OverflowError:  # an integer past the float range
        p = None
    if p is None:
        raise ValueError(f"{where}: must be a list of probabilities")
    if not np.isfinite(p).all():  # a NaN passes the sign and sum checks
        raise ValueError(f"{where}: non-finite probabilities")
    if np.any(p < 0):
        raise ValueError(f"{where}: negative probabilities")
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past 1e308 is inf
        total = float(p.sum())
    gap = abs(total - 1.0)
    if gap > 1e-6:
        raise ValueError(f"{where}: probabilities sum to {total!r}")
    if gap > 1e-9:
        warnings.warn(f"{where}: renormalizing (discrepancy {gap:.3g})")
        p = p / total
    return p


def _field(data: dict, name: str):
    if name not in data:
        raise ValueError(f"{data['kind']} distribution: missing field {name!r}")
    return data[name]


def _list_field(data: dict, name: str) -> list:
    value = _field(data, name)
    if not isinstance(value, list):
        raise ValueError(f"{data['kind']} distribution: field {name!r} must be a list")
    return value


def _product(raw_axes: list) -> ProductDistribution:
    axes = [_load_vector(v, f"axis {i}") for i, v in enumerate(raw_axes)]
    return ProductDistribution(ProductDomain.of_sizes(*(len(v) for v in axes)), axes)


def distribution_from_dict(data: dict) -> Distribution:
    """A distribution from its JSON document; ``ValueError`` naming a bad field."""
    if not isinstance(data, dict):
        raise ValueError(
            f"distribution must be a JSON object with a 'kind' field, "
            f"not {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind == "product":
        axes = _list_field(data, "axes")
        if not axes:
            raise ValueError("product distribution: field 'axes' must not be empty")
        return _product(axes)
    if kind == "mixture":
        weights = _load_vector(_field(data, "weights"), "weights")
        components = _list_field(data, "components")
        if not components or not all(isinstance(c, list) and c for c in components):
            raise ValueError(
                "mixture distribution: field 'components' must be a non-empty list "
                "of non-empty axis lists"
            )
        return MixtureDistribution(weights, [_product(c) for c in components])
    if kind == "joint":
        sizes = _list_field(data, "sizes")
        try:
            check_sizes(sizes)
        except ValueError:
            raise ValueError(
                "joint distribution: field 'sizes' must be a non-empty list of "
                "positive integers"
            ) from None
        table = _load_vector(_field(data, "table"), "table")
        # checked here, so the error names the table and its sizes
        if table.size != math.prod(sizes):
            raise ValueError(
                f"joint distribution: table has {table.size} entries, "
                f"sizes {sizes} need {math.prod(sizes)}"
            )
        return JointTable(ProductDomain.of_sizes(*sizes), table)
    raise ValueError(f"unknown distribution kind {kind!r}")


def distribution_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, ProductDistribution):
        return {"kind": "product", "axes": [p.tolist() for p in dist.marginals]}
    if isinstance(dist, MixtureDistribution):
        return {
            "kind": "mixture",
            "weights": dist.weights.tolist(),
            "components": [[p.tolist() for p in c.marginals] for c in dist.components],
        }
    if isinstance(dist, JointTable):
        return {
            "kind": "joint",
            "sizes": list(dist.domain.sizes),
            "table": dist.probs.tolist(),
        }
    raise TypeError(f"cannot serialize {type(dist).__name__}")


def load_distribution(path) -> Distribution:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_dict(json.load(fh))


def dump_distribution(dist: Distribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_to_dict(dist), fh, indent=2, sort_keys=True)
        fh.write("\n")
