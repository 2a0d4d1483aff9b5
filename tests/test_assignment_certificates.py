"""LP-dual optimality certificates for the max-weight assignment at catalog n.

Enumeration checks the assignment path only at n <= 6.  Here each matching
the library's solver returns is proved optimal by a dual certificate
(``_oracles.assignment_certificate``) within 1e-12: on random and tied
weights up to n = 100, on the n = 100 matrices ``deviation-scaling`` and
``perm-product-success`` solve, both as given and warm-started from the
column potentials they are solved with, and on every second solve that
``deviation-scaling`` or ``pge-end-to-end`` skips, whose certified value
must be at or below the first side's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assignment_certificate, warm_dual_sides
from gridest import estimators
from gridest.experiments import ExperimentConfig, run_scenario
from gridest.families import PermutationGraphs

TOL = 1e-12
SIGNS = (1, -1)


def certified_value(weights, potentials=None) -> float:
    """The value of the solver's matching on ``weights``, less the column
    ``potentials`` when given, certified optimal for ``weights`` itself."""
    reduced = weights if potentials is None else weights - potentials
    _, cols = estimators._linear_sum_assignment()(reduced, maximize=True)
    value, slack, gap = assignment_certificate(weights, cols)
    assert slack >= -TOL and gap <= TOL, (slack, gap)
    assert abs(estimators.max_assignment_value(weights, potentials) - value) <= TOL
    return value


@given(st.integers(1, 100), st.integers(0, 2**32 - 1), st.sampled_from(["normal", "tied"]))
@settings(max_examples=40, deadline=None)
def test_random_and_tied_weights(n, seed, kind):
    rng = np.random.default_rng(seed)
    weights = (rng.normal(size=(n, n)) if kind == "normal"
               else rng.integers(-2, 3, size=(n, n)).astype(float))
    certified_value(weights)


def test_the_certificate_rejects_a_suboptimal_matching():
    weights = np.array([[2.0, 0.0], [0.0, 2.0]])
    _, slack, _ = assignment_certificate(weights, [1, 0])
    assert slack < -1.0
    assert assignment_certificate(weights, [0, 1])[1:] == (0.0, 0.0)


def solves_per_sup_deviation(monkeypatch, scenario: str, trials: int) -> list:
    """Run a scenario at seed 2024 and list, per permutation-graph
    sup-deviation, the ``(diff, terms, solves)`` handed to ``max_abs_sum``:
    the solves are the weight matrices it handed to the solver, each with
    the column potentials it came with (None for a cold solve) and the sign
    it maximizes them with."""
    calls = []
    solve = estimators.max_assignment_value
    max_abs_sum = PermutationGraphs.max_abs_sum

    def recording_solve(weights, potentials=None, sign=1):
        calls[-1][2].append(
            (weights.copy(), None if potentials is None else potentials.copy(), sign)
        )
        return solve(weights, potentials, sign)

    def recording_max_abs_sum(family, diff, terms=None):
        calls.append((diff.copy(), terms, []))
        return max_abs_sum(family, diff, terms)

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "max_assignment_value", recording_solve)
        patch.setattr(PermutationGraphs, "max_abs_sum", recording_max_abs_sum)
        run_scenario(ExperimentConfig(scenario=scenario, trials=trials, seed=2024))
    return calls


def test_deviation_scaling_matrices_both_signs(monkeypatch):
    calls = solves_per_sup_deviation(monkeypatch, "deviation-scaling", 2)
    # seven sample sizes, two trials each
    assert len(calls) == 14
    skipped = 0
    for diff, terms, solves in calls:
        assert diff.shape == (100, 100) and terms is not None
        # the empirical product minus the ramp product: rank at most 2
        assert np.linalg.matrix_rank(diff) <= 2
        sides = warm_dual_sides(diff, terms)
        optima = [certified_value(side.weights) for side in sides]
        for side, optimum in zip(sides, optima):
            assert side.bound >= optimum - TOL
            # the reduced bound is the potentials' own dual, up to rounding
            assert abs(side.reduced - side.bound) <= TOL
            assert side.unreduced >= side.reduced - TOL
            assert abs(certified_value(side.weights, side.potentials) - optimum) <= TOL
        # the side with the larger unreduced bound is solved first, warm; the
        # other only when its reduced bound reaches the first side's value
        # each solve gets diff itself and its side's sign
        first = int(sides[1].unreduced > sides[0].unreduced)
        weights, potentials = sides[first][:2]
        assert np.array_equal(solves[0][0], diff) and solves[0][2] == SIGNS[first]
        assert np.array_equal(solves[0][1], potentials)
        first_value = estimators.max_assignment_value(weights, potentials)
        assert len(solves) == 1 + (sides[1 - first].reduced >= first_value - 1e-12)
        if len(solves) == 1:
            skipped += 1
            assert optima[1 - first] <= optima[first] + TOL
        else:
            assert np.array_equal(solves[1][0], diff)
            assert solves[1][2] == SIGNS[1 - first]
            assert np.array_equal(solves[1][1], sides[1 - first].potentials)
    assert skipped


def test_perm_product_success_warm_solves(monkeypatch):
    # a uniform truth: integer count ties give exactly tied optimal matchings
    calls = solves_per_sup_deviation(monkeypatch, "perm-product-success", 5)
    solves = [solve for _, _, solves in calls for solve in solves]
    assert len(calls) == 5 and len(solves) >= 5
    for weights, potentials, sign in solves:
        assert weights.shape == (100, 100) and potentials is not None
        signed = sign * weights
        assert abs(certified_value(signed, potentials)
                   - certified_value(signed)) <= TOL


def test_skipped_second_solves_on_pge_end_to_end(monkeypatch):
    calls = solves_per_sup_deviation(monkeypatch, "pge-end-to-end", 10)
    skipped = [solves[0] for _, _, solves in calls if len(solves) == 1]
    assert skipped and all(len(solves) in (1, 2) for _, _, solves in calls)
    # phase-2 means are no product: their solves are cold
    assert all(terms is None for _, terms, _ in calls)
    assert all(potentials is None
               for _, _, solves in calls for _, potentials, _ in solves)
    for weights, _, sign in skipped:
        first = sign * weights
        value = certified_value(first)
        assert certified_value(-first) <= value + TOL
