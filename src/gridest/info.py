"""Exact information-theoretic primitives on finite distributions.

All divergences and entropies are in nats; ``to_bits`` converts for display.
``+inf`` is a legitimate KL value, not an error.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

PMF_ATOL = 1e-12


def as_pmf(p) -> np.ndarray:
    """Validate a probability vector: finite, nonnegative, sums to 1 within 1e-12."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("pmf must be one-dimensional")
    if not np.all(np.isfinite(p)):
        raise ValueError("pmf has non-finite entries")
    if np.any(p < 0):
        raise ValueError("pmf has negative entries")
    if abs(p.sum() - 1.0) > PMF_ATOL:
        raise ValueError(f"pmf sums to {p.sum()!r}, not 1")
    return p


def to_bits(nats: float) -> float:
    return nats / LN2


def binary_entropy(a: float) -> float:
    """H(a) = -a ln a - (1-a) ln(1-a), with H(0) = H(1) = 0."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if a == 0.0 or a == 1.0:
        return 0.0
    return -(a * math.log(a) + (1.0 - a) * math.log1p(-a))


def binary_entropy_bits(a: float) -> float:
    return binary_entropy(a) / LN2


def _check_same_support(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError("distributions are over different outcome sets")


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    p, q = as_pmf(p), as_pmf(q)
    _check_same_support(p, q)
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def binary_kl(a: float, b: float) -> float:
    """d(a || b) = a ln(a/b) + (1-a) ln((1-a)/(1-b))."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    return kl_divergence([a, 1.0 - a], [b, 1.0 - b])


def bernoulli_bias_kl(nu: float) -> float:
    """KL(Ber(1/2 + nu) || Ber(1/2 - nu)) = 2 nu ln((1+2nu)/(1-2nu)).

    Defined for 0 < nu < 1/4; satisfies 8 nu^2 <= value <= (32/3) nu^2.
    """
    if not 0.0 < nu < 0.25:
        raise ValueError("nu must lie in (0, 1/4)")
    return 2.0 * nu * math.log((1.0 + 2.0 * nu) / (1.0 - 2.0 * nu))


def hellinger_sq(p, q) -> float:
    """Squared Hellinger distance H^2 = 2 (1 - sum sqrt(p q)), in [0, 2]."""
    p, q = as_pmf(p), as_pmf(q)
    _check_same_support(p, q)
    return float(2.0 * (1.0 - np.sum(np.sqrt(p * q))))


def hellinger_sq_biased_product(nu: float, k: int) -> float:
    """H^2 between ``Ber(1/2+nu)^k`` and ``Ber(1/2-nu)^k``: 2(1-(1-4nu^2)^(k/2))."""
    if not 0.0 <= nu < 0.5:
        raise ValueError("nu must lie in [0, 1/2)")
    if k < 1:
        raise ValueError("k must be positive")
    return 2.0 * (1.0 - (1.0 - 4.0 * nu * nu) ** (k / 2.0))


def tv_distance(p, q) -> float:
    """Total variation distance, half the L1 distance."""
    p, q = as_pmf(p), as_pmf(q)
    _check_same_support(p, q)
    return float(0.5 * np.sum(np.abs(p - q)))


def fano_error_lower_bound(m_hypotheses: int, avg_kl_to_mean: float) -> float:
    """Lower bound on the error of any M-ary test: 1 - (avg KL + ln 2)/ln M.

    ``avg_kl_to_mean`` is the average KL from each hypothesis to the mean
    distribution.  The bound is clamped at 0 when vacuous.
    """
    if m_hypotheses < 2:
        raise ValueError("need at least 2 hypotheses")
    if avg_kl_to_mean < 0:
        raise ValueError("average KL must be nonnegative")
    return max(0.0, 1.0 - (avg_kl_to_mean + LN2) / math.log(m_hypotheses))


def kl_additivity_check(theta, theta_prime, nu: float) -> float:
    """KL between biased-product Bernoullis: Hamming(theta, theta') * D_nu."""
    theta = np.asarray(theta, dtype=int)
    theta_prime = np.asarray(theta_prime, dtype=int)
    if theta.shape != theta_prime.shape:
        raise ValueError("sign vectors have different lengths")
    hamming = int(np.sum(theta != theta_prime))
    if hamming == 0:
        return 0.0
    return hamming * bernoulli_bias_kl(nu)
