"""LP-dual optimality certificates for the max-weight assignment at catalog n.

Enumeration checks the assignment path only at n <= 6.  Here each matching
the library's solver returns is proved optimal by a dual certificate
(``_oracles.assignment_certificate``) within 1e-12: on random and tied
weights up to n = 100, on the n = 100 matrices ``deviation-scaling`` solves,
and on every second solve that ``pge-end-to-end`` skips, whose certified
value must be at or below the first side's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assignment_certificate
from gridest import estimators
from gridest.experiments import ExperimentConfig, run_scenario
from gridest.families import PermutationGraphIndex

TOL = 1e-12


def certified_value(weights) -> float:
    """The value of the solver's matching on ``weights``, certified optimal."""
    _, cols = estimators._linear_sum_assignment()(weights, maximize=True)
    value, slack, gap = assignment_certificate(weights, cols)
    assert slack >= -TOL and gap <= TOL, (slack, gap)
    assert abs(estimators.max_assignment_value(weights) - value) <= TOL
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


def solves_per_sup_deviation(monkeypatch, scenario: str, trials: int) -> list[list]:
    """Run a scenario at seed 2024 and list, per permutation-graph
    sup-deviation, the weight matrices it handed to the solver."""
    calls = []
    solve = estimators.max_assignment_value
    max_abs_sum = PermutationGraphIndex.max_abs_sum

    def recording_solve(weights):
        calls[-1].append(weights.copy())
        return solve(weights)

    def recording_max_abs_sum(index, diff):
        calls.append([])
        return max_abs_sum(index, diff)

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "max_assignment_value", recording_solve)
        patch.setattr(PermutationGraphIndex, "max_abs_sum", recording_max_abs_sum)
        run_scenario(ExperimentConfig(scenario=scenario, trials=trials, seed=2024))
    return calls


def test_deviation_scaling_matrices_both_signs(monkeypatch):
    calls = solves_per_sup_deviation(monkeypatch, "deviation-scaling", 2)
    # seven sample sizes, two trials each; the row bound skips no second solve
    assert len(calls) == 14 and all(len(solves) == 2 for solves in calls)
    for diff, negated in calls:
        assert diff.shape == (100, 100) and np.array_equal(negated, -diff)
        # the empirical product minus the ramp product: rank at most 2
        assert np.linalg.matrix_rank(diff) <= 2
        certified_value(diff)
        certified_value(negated)


def test_skipped_second_solves_on_pge_end_to_end(monkeypatch):
    calls = solves_per_sup_deviation(monkeypatch, "pge-end-to-end", 10)
    skipped = [solves[0] for solves in calls if len(solves) == 1]
    assert skipped and all(len(solves) in (1, 2) for solves in calls)
    for first in skipped:
        value = certified_value(first)
        assert certified_value(-first) <= value + TOL
