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

from .domain import CapExceededError, MAX_CELLS, ProductDomain, code_bits
from .info import as_pmf, binary_entropy


class ProductDistribution:
    """A product of per-axis probability vectors over a domain's alphabets."""

    kind = "product"

    def __init__(self, domain: ProductDomain, marginals: Sequence):
        if len(marginals) != domain.width:
            raise ValueError("marginal count != domain width")
        cleaned = []
        for i, p in enumerate(marginals):
            p = as_pmf(p)
            if p.size != domain.sizes[i]:
                raise ValueError(f"marginal {i} length != alphabet size")
            p.flags.writeable = False
            cleaned.append(p)
        self.domain = domain
        self.marginals = tuple(cleaned)

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.int64)
        out = np.ones(len(points))
        for i, p in enumerate(self.marginals):
            out *= p[points[:, i]]
        return out

    def table(self) -> "JointTable":
        if self.domain.n_points > MAX_CELLS:
            raise CapExceededError("domain too large to tabulate")
        probs = functools.reduce(np.multiply.outer, self.marginals)
        return JointTable(self.domain, probs.ravel())

    def describe(self) -> str:
        return f"product({self.domain.describe()})"


class MixtureDistribution:
    """A finite mixture of product distributions on a common domain."""

    kind = "mixture"

    def __init__(self, weights, components: Sequence[ProductDistribution]):
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        weights = as_pmf(weights)
        if weights.size != len(components):
            raise ValueError("weight count != component count")
        domain = components[0].domain
        if any(c.domain != domain for c in components):
            raise ValueError("components live on different domains")
        weights.flags.writeable = False
        self.domain = domain
        self.weights = weights
        self.components = tuple(components)

    @property
    def k(self) -> int:
        return len(self.components)

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(len(points))
        for w, comp in zip(self.weights, self.components):
            out += w * comp.point_prob(points)
        return out

    def table(self) -> "JointTable":
        probs = np.zeros(self.domain.n_points)
        for w, comp in zip(self.weights, self.components):
            probs += w * comp.table().probs
        return JointTable(self.domain, probs)

    def describe(self) -> str:
        return f"mixture(k={self.k}, {self.domain.describe()})"


class JointTable:
    """A full probability table in the domain's canonical point order."""

    kind = "joint"

    def __init__(self, domain: ProductDomain, probs):
        probs = as_pmf(np.ravel(probs))
        if probs.size != domain.n_points:
            raise ValueError("table size != number of domain points")
        probs.flags.writeable = False
        self.domain = domain
        self.probs = probs

    def point_prob(self, points: np.ndarray) -> np.ndarray:
        return self.probs[self.domain.flat_index(points)]

    def table(self) -> "JointTable":
        return self

    def reshaped(self) -> np.ndarray:
        return self.probs.reshape(self.domain.sizes)

    def describe(self) -> str:
        return f"joint({self.domain.describe()})"


Distribution = ProductDistribution | MixtureDistribution | JointTable


@dataclass(frozen=True)
class GaussianSpec:
    """Covariance data for the Gaussian total-correlation closed form."""

    sigma: np.ndarray | None = None
    rho: float | None = None

    def covariance(self) -> np.ndarray:
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise ValueError("covariance must be square")
            if np.max(np.abs(sigma - sigma.T)) > 1e-12:
                raise ValueError("covariance not symmetric")
            return sigma
        if self.rho is None:
            raise ValueError("need a covariance matrix or a correlation")
        return np.array([[1.0, self.rho], [self.rho, 1.0]])


# -- sampling -----------------------------------------------------------------


def sample(dist: Distribution, m: int, seed) -> np.ndarray:
    """Draw ``m`` i.i.d. points as an ``(m, d)`` index array.

    Deterministic given ``seed`` (an int or a ``numpy.random.SeedSequence``).
    Mixtures draw the component index first, then the coordinates.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    return _sample_with(dist, m, rng)


def _sample_with(dist: Distribution, m: int, rng: np.random.Generator) -> np.ndarray:
    d = dist.domain.width
    out = np.empty((m, d), dtype=np.int64)
    if isinstance(dist, ProductDistribution):
        for i, p in enumerate(dist.marginals):
            out[:, i] = rng.choice(p.size, size=m, p=p)
        return out
    if isinstance(dist, MixtureDistribution):
        comps = rng.choice(dist.k, size=m, p=dist.weights)
        for t, comp in enumerate(dist.components):
            mask = comps == t
            count = int(mask.sum())
            if count == 0:
                continue
            for i, p in enumerate(comp.marginals):
                out[mask, i] = rng.choice(p.size, size=count, p=p)
        return out
    if isinstance(dist, JointTable):
        flat = rng.choice(dist.domain.n_points, size=m, p=dist.probs)
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
    from one generator; any other distribution gives the axis sums of
    ``sample_counts``.  ``seed`` may be a ``numpy.random.Generator``, used as
    is.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(dist, ProductDistribution):
        return tuple(rng.multinomial(m, p) for p in dist.marginals)
    counts = sample_counts(dist, m, rng)
    axes = range(counts.ndim)
    return tuple(counts.sum(axis=tuple(j for j in axes if j != i)) for i in axes)


# -- box projection and total correlation -------------------------------------


def box_projection(dist: Distribution) -> ProductDistribution:
    """The product of the exact one-dimensional marginals."""
    if isinstance(dist, ProductDistribution):
        return dist
    table = dist.table().reshaped()
    d = table.ndim
    marginals = []
    for i in range(d):
        axes = tuple(j for j in range(d) if j != i)
        marginals.append(table.sum(axis=axes))
    return ProductDistribution(dist.domain, marginals)


def event_probability(dist: Distribution, event) -> float:
    """Exact probability of an event (dense bits or a point predicate).

    The sum ``bits @ probs`` is the one used by ``ExactEstimator``, so both
    give the same number bit for bit.
    """
    if callable(event):
        pts = dist.domain.all_points()
        bits = np.asarray(event(pts), dtype=bool)
    else:
        bits = np.asarray(event, dtype=bool)
        if bits.size != dist.domain.n_points:
            raise ValueError("dense event length != number of domain points")
    return float(bits @ dist.table().probs)


def total_correlation(joint: JointTable) -> float:
    """KL(P || product of marginals) in nats; finite on finite domains."""
    p = joint.probs
    q = box_projection(joint).table().probs
    mask = p > 0
    if np.any(q[mask] == 0):
        # cannot happen: the product of marginals dominates the joint
        raise AssertionError("box projection fails to dominate the joint table")
    value = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(value, 0.0)


def gaussian_total_correlation(spec: GaussianSpec) -> float:
    """(1/2) ln(det(diag Sigma) / det Sigma) for a Gaussian covariance."""
    sigma = spec.covariance()
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("covariance not positive definite") from None
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("covariance not positive definite")
    logdiag = float(np.sum(np.log(np.diag(sigma))))
    value = 0.5 * (logdiag - logdet)
    if spec.rho is not None and sigma.shape == (2, 2):
        direct = 0.5 * math.log(1.0 / (1.0 - spec.rho**2))
        if abs(direct - value) > 1e-10:
            raise AssertionError("bivariate and determinant paths disagree")
    return value


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
    """A modulus of box-continuity: nondecreasing alpha -> beta on (0, 1]."""

    kind: str
    params: tuple = ()

    def __call__(self, alpha: float) -> float:
        if self.kind == "identity":
            if not 0.0 < alpha <= 1.0:
                raise ValueError("alpha must lie in (0, 1]")
            return alpha
        if self.kind == "mixture":
            k, d = self.params
            return mixture_modulus(k, d, alpha)
        if self.kind == "tc":
            (c_nats,) = self.params
            return tc_modulus(c_nats, alpha)
        if self.kind == "table":
            alphas, betas = self.params
            if not 0.0 < alpha <= 1.0:
                raise ValueError("alpha must lie in (0, 1]")
            idx = np.searchsorted(alphas, alpha, side="right") - 1
            if idx < 0:
                raise ValueError("alpha below the table's smallest knot")
            return float(betas[idx])
        raise ValueError(f"unknown modulus kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "Modulus":
        return cls("identity")

    @classmethod
    def for_mixture(cls, k: int, d: int) -> "Modulus":
        return cls("mixture", (k, d))

    @classmethod
    def for_total_correlation(cls, c_nats: float) -> "Modulus":
        return cls("tc", (c_nats,))

    @classmethod
    def from_table(cls, alphas, betas) -> "Modulus":
        """A step modulus; the knots are kept as tuples so moduli compare and hash."""
        alphas = np.asarray(alphas, dtype=float).ravel()
        betas = np.asarray(betas, dtype=float).ravel()
        if alphas.size != betas.size:
            raise ValueError("need one beta per alpha knot")
        if np.any(np.diff(alphas) <= 0) or np.any(np.diff(betas) < 0):
            raise ValueError("table knots must be increasing, betas nondecreasing")
        if np.any((betas <= 0) | (betas > 1)):
            raise ValueError("betas must lie in (0, 1]")
        return cls("table", (tuple(alphas.tolist()), tuple(betas.tolist())))

    def describe(self) -> str:
        if self.kind == "mixture":
            return f"mixture(k={self.params[0]}, d={self.params[1]})"
        if self.kind == "tc":
            return f"tc(C={self.params[0]})"
        return self.kind


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
    components = []
    for t in range(k):
        one_hot = np.zeros(k)
        one_hot[t] = 1.0
        components.append(ProductDistribution(domain, [one_hot] * d))
    weights = np.full(k, alpha / (k - 1))
    weights[k - 1] = 1.0 - alpha
    mixture = MixtureDistribution(weights, components)
    event = np.zeros(domain.n_points, dtype=bool)
    diag = np.array([[t] * d for t in range(k - 1)], dtype=np.int64)
    event[domain.flat_index(diag)] = True
    return mixture, event


def gilbert_varshamov_code(d: int, min_distance: int, seed=None) -> np.ndarray:
    """A greedy sign-vector code with pairwise Hamming distance >= min_distance.

    Greedy over a seeded-random (or lexicographic, when seed is None) order of
    all 2^d sign vectors; the achieved rate log2(size)/d is whatever the greedy
    construction attains, verified by the caller.
    """
    if d < 1 or min_distance < 1:
        raise ValueError("need d >= 1 and min_distance >= 1")
    if 2**d > MAX_CELLS:
        raise CapExceededError("sign-vector space too large to enumerate")
    codes = np.arange(2**d, dtype=np.int64)
    if seed is not None:
        codes = np.random.default_rng(seed).permutation(codes)
    vectors = code_bits(codes, d).astype(np.int8)
    kept: list[np.ndarray] = []
    kept_mat = np.empty((0, d), dtype=np.int8)
    for v in vectors:
        if kept_mat.shape[0]:
            dists = np.sum(kept_mat != v, axis=1)
            if dists.min() < min_distance:
                continue
        kept.append(v)
        kept_mat = np.array(kept, dtype=np.int8)
    return (kept_mat.astype(np.int64) * 2) - 1


def code_rate(code: np.ndarray) -> float:
    return math.log2(code.shape[0]) / code.shape[1]


def biased_cube_family(
    d: int, nu: float, code: np.ndarray | None = None
) -> list[ProductDistribution]:
    """Products ``Ber(1/2 + theta_i nu)`` over ``{0,1}^d`` for sign patterns theta.

    With ``code`` given (an ``(M, d)`` array of +-1), only those patterns are
    built; otherwise all ``2^d``.
    """
    if not 0.0 < nu < 0.25:
        raise ValueError("nu must lie in (0, 1/4)")
    domain = ProductDomain.of_sizes(*([2] * d))
    if code is None:
        code = code_bits(np.arange(2**d, dtype=np.int64), d) * 2 - 1
    else:
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
    is set.  Only feasible for small domains (cap 2^20 events).
    """
    n = dist.domain.n_points
    if 2**n > MAX_CELLS:
        raise CapExceededError("too many events to enumerate")
    probs = dist.table().probs
    bits = code_bits(np.arange(2**n, dtype=np.int64), n).astype(float)
    return bits @ probs


# -- JSON distribution format --------------------------------------------------


def _load_vector(raw, where: str) -> np.ndarray:
    p = np.asarray(raw, dtype=float)
    if np.any(p < 0):
        raise ValueError(f"{where}: negative probabilities")
    gap = abs(p.sum() - 1.0)
    if gap > 1e-6:
        raise ValueError(f"{where}: probabilities sum to {p.sum()!r}")
    if gap > 1e-9:
        warnings.warn(f"{where}: renormalizing (discrepancy {gap:.3g})")
        p = p / p.sum()
    return p


def distribution_from_dict(data: dict) -> Distribution:
    kind = data.get("kind")
    if kind == "product":
        axes = [_load_vector(v, f"axis {i}") for i, v in enumerate(data["axes"])]
        domain = ProductDomain.of_sizes(*(len(v) for v in axes))
        return ProductDistribution(domain, axes)
    if kind == "mixture":
        weights = _load_vector(data["weights"], "weights")
        components = [
            distribution_from_dict({"kind": "product", "axes": c})
            for c in data["components"]
        ]
        return MixtureDistribution(weights, components)
    if kind == "joint":
        sizes = [int(n) for n in data["sizes"]]
        table = _load_vector(data["table"], "table")
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
