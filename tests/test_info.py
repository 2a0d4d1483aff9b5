"""Information-theoretic primitives against brute-force oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.info import (
    as_pmf,
    bernoulli_bias_kl,
    binary_entropy,
    binary_entropy_bits,
    hellinger_sq,
    hellinger_sq_biased_product,
    kl_additivity_check,
    kl_divergence,
    tv_distance,
)

LN2 = math.log(2)


def biased_product_table(theta, nu):
    """Explicit table of a +-nu biased Bernoulli product, by bit patterns."""
    d = len(theta)
    probs = np.empty(2**d)
    for idx, bits in enumerate(itertools.product([0, 1], repeat=d)):
        p = 1.0
        for b, t in zip(bits, theta):
            p_one = 0.5 + t * nu
            p *= p_one if b else 1.0 - p_one
        probs[idx] = p
    return probs


class TestBinaryEntropy:
    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_base2_anchor(self):
        # H(0.05) is about 0.286 bits
        assert binary_entropy_bits(0.05) == pytest.approx(0.286, abs=5e-4)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestKlDivergence:
    def test_self_divergence_zero(self):
        p = [0.2, 0.3, 0.5]
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2)

    def test_infinite_when_unsupported(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_mismatched_outcome_sets_rejected(self):
        with pytest.raises(ValueError, match="different outcome sets"):
            kl_divergence([0.5, 0.5], [0.5, 0.25, 0.25])


def binary_kl(a, b):
    """d(a || b), the KL divergence between Ber(a) and Ber(b)."""
    return kl_divergence([a, 1.0 - a], [b, 1.0 - b])


class TestBinaryKl:
    def test_identity_zero(self):
        assert binary_kl(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_half_vs_quarter(self):
        assert binary_kl(0.5, 0.25) == pytest.approx(0.14384103622589042, abs=1e-12)

    def test_one_vs_half(self):
        assert binary_kl(1.0, 0.5) == pytest.approx(LN2, abs=1e-12)

    def test_degenerate_reference(self):
        assert binary_kl(0.0, 0.0) == 0.0
        assert binary_kl(0.5, 0.0) == math.inf
        assert binary_kl(0.5, 1.0) == math.inf


class TestBernoulliBiasKl:
    def test_value_at_point_one(self):
        assert bernoulli_bias_kl(0.1) == pytest.approx(0.08109302162163289, abs=1e-15)

    def test_agrees_with_generic_kl(self):
        for nu in (0.03, 0.1, 0.22):
            direct = kl_divergence([0.5 + nu, 0.5 - nu], [0.5 - nu, 0.5 + nu])
            assert bernoulli_bias_kl(nu) == pytest.approx(direct, abs=1e-12)

    def test_small_bias_limit(self):
        nu = 1e-4
        assert bernoulli_bias_kl(nu) / nu**2 == pytest.approx(8.0, rel=1e-3)

    def test_bounds_at_point_two(self):
        assert 0.32 <= bernoulli_bias_kl(0.2) <= 32 / 3 * 0.04

    def test_bounds_on_grid(self):
        # quadratic envelope, strict in the interior
        for nu in np.linspace(0.0025, 0.2475, 100):
            value = bernoulli_bias_kl(float(nu))
            assert 8 * nu**2 - 1e-12 <= value <= (32 / 3) * nu**2 + 1e-12
            assert value > 8 * nu**2
            assert value < (32 / 3) * nu**2

    def test_domain_checked(self):
        for nu in (0.0, 0.25, -0.1):
            with pytest.raises(ValueError):
                bernoulli_bias_kl(nu)


class TestHellinger:
    def test_self_distance_zero(self):
        p = [0.1, 0.9]
        assert hellinger_sq(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports(self):
        assert hellinger_sq([1, 0], [0, 1]) == pytest.approx(2.0)

    def test_single_coordinate_closed_form(self):
        assert hellinger_sq_biased_product(0.3, 1) == pytest.approx(0.4, abs=1e-12)
        direct = hellinger_sq([0.2, 0.8], [0.8, 0.2])
        assert hellinger_sq_biased_product(0.3, 1) == pytest.approx(direct, abs=1e-12)

    def test_zero_bias(self):
        for k in (1, 5, 10):
            assert hellinger_sq_biased_product(0.0, k) == 0.0

    @pytest.mark.parametrize("nu", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_closed_form_matches_tables(self, nu, k):
        plus = biased_product_table([+1] * k, nu)
        minus = biased_product_table([-1] * k, nu)
        assert hellinger_sq_biased_product(nu, k) == pytest.approx(
            hellinger_sq(plus, minus), abs=1e-10
        )

    def test_separation_predicate(self):
        # nu >= sqrt(eps / 2k) forces H^2 >= eps wherever the bias is feasible
        for eps in (0.1, 0.5, 1.0):
            for k in (1, 4, 16):
                threshold = math.sqrt(eps / (2 * k))
                for nu in np.linspace(0.01, 0.49, 49):
                    if nu >= threshold:
                        assert hellinger_sq_biased_product(float(nu), k) >= eps


class TestTvDistance:
    def test_self_zero(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_distinct_point_masses(self):
        assert tv_distance([1, 0, 0], [0, 0, 1]) == 1.0

    def test_equals_sup_over_events(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 12):
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            sup = 0.0
            for mask in range(2**n):
                bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
                sup = max(sup, abs(p[bits].sum() - q[bits].sum()))
            assert tv_distance(p, q) == pytest.approx(sup, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dominates_half_squared_hellinger(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert tv_distance(p, q) >= 0.5 * hellinger_sq(p, q) - 1e-12


class TestFano:
    def test_identity_on_tiny_channels(self):
        # conditional entropy of the uniform index equals ln M minus the
        # average KL to the mean distribution, computed exhaustively
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 7))
            rows = np.array([rng.dirichlet(np.ones(n)) for _ in range(m)])
            mean = rows.mean(axis=0)
            joint = rows / m
            post = joint / mean[None, :]
            h_cond = -np.sum(joint * np.where(post > 0, np.log(post), 0.0))
            rhs = math.log(m) - np.mean([kl_divergence(r, mean) for r in rows])
            assert h_cond == pytest.approx(rhs, abs=1e-10)


class TestKlAdditivity:
    def test_equal_patterns(self):
        assert kl_additivity_check([1, -1, 1], [1, -1, 1], 0.1) == 0.0

    def test_two_flips(self):
        value = kl_additivity_check([1, 1, 1], [-1, -1, 1], 0.1)
        assert value == pytest.approx(2 * 0.08109302162163289, abs=1e-12)

    def test_all_flips(self):
        value = kl_additivity_check([1, 1, 1, 1], [-1, -1, -1, -1], 0.07)
        assert value == pytest.approx(4 * bernoulli_bias_kl(0.07), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            kl_additivity_check([1, 1], [1], 0.1)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_full_table_kl(self, d):
        rng = np.random.default_rng(d)
        nu = 0.11
        theta = rng.choice([-1, 1], size=d)
        theta_p = rng.choice([-1, 1], size=d)
        full = kl_divergence(
            biased_product_table(theta, nu), biased_product_table(theta_p, nu)
        )
        assert kl_additivity_check(theta, theta_p, nu) == pytest.approx(
            full, abs=1e-10
        )


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: as_pmf([[0.5, 0.5]]), "pmf must be one-dimensional", id="pmf-2d"),
    pytest.param(lambda: as_pmf([1.5, -0.5]), "pmf has negative entries",
                 id="pmf-negative"),
    pytest.param(lambda: hellinger_sq_biased_product(0.5, 1), "nu must lie in [0, 1/2)",
                 id="hellinger-nu"),
    pytest.param(lambda: hellinger_sq_biased_product(0.1, 0), "k must be positive",
                 id="hellinger-k"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
