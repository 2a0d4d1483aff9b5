"""Tests of the benchmark's own machinery: spans, wrappers, reference units, checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import numpy as np
import pytest

import layers
import reference
import spans
import workloads
from gridest import distributions, domain, estimators, experiments, families


def span(name, start, end, parent=-1, counts=None, error=None):
    return [name, start, end, parent, -1, counts, error]


def test_self_time_on_synthetic_tree():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 3.5, 6.0, parent=0),  # overlaps "a": the overlap counts once
        span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_stats_counts_recursion_once_and_errors():
    tree = [
        span("t", 0.0, 5.0),
        span("t", 1.0, 2.0, parent=0, counts={"points": 3}),
        span("b", 6.0, 7.0, error="NotEnumerableError"),
    ]
    stats = spans.layer_stats(tree)
    assert stats["t"]["calls"] == 2
    assert stats["t"]["busy_s"] == pytest.approx(5.0)
    assert stats["t"]["self_s"] == pytest.approx(5.0)
    assert stats["t"]["points"] == 3
    assert stats["b"]["errors"] == {"NotEnumerableError": 1}


def _current(module, path):
    owner, attr = spans._resolve(module, path)
    return vars(owner)[attr]


def test_wrappers_restored_after_traced_run():
    before = {(m, p): _current(m, p) for m, p, _, _ in layers.TARGETS}
    recorder = spans.Recorder()
    with spans.installed(recorder, layers.TARGETS):
        assert experiments.sample is not before[("gridest.experiments", "sample")]
        dist = experiments.two_component_mixture(3)
        family = families.PermutationGraphs(3)
        plan = estimators.SamplingPlan(
            epsilon=0.2, delta=0.1, lvc=1, width=2,
            modulus=distributions.Modulus.identity(), split=(200, 100),
        )
        est = estimators.build_product_grid_estimator(
            distributions.sample(dist, 300, 1), family, plan)
        estimators.sup_deviation(est, family, dist, method="enumerate")
    after = {(m, p): _current(m, p) for m, p, _, _ in layers.TARGETS}
    assert all(after[key] is before[key] for key in before)
    assert recorder.missing == []
    names = {rec[spans.NAME] for rec in recorder.spans}
    assert {layers.SAMPLE, layers.BUILD, layers.SUP, layers.ESTIMATE} <= names
    values = layers.layer_values(recorder.spans, passes=1)
    assert values["distributions.sample.points"] == 300
    assert values["estimators.sup_deviation.enumerate"] == 1
    assert values["estimators.estimate.calls"] == 6


def test_wrappers_restored_when_the_run_raises():
    original = experiments.run_scenario
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder(), layers.TARGETS):
            raise RuntimeError("workload failed")
    assert experiments.run_scenario is original


def test_missing_wrapped_name_is_reported_not_raised():
    recorder = spans.Recorder()
    targets = [
        ("gridest.experiments", "no_such_function", "x.gone", None),
        ("gridest.estimators", "ProductGridEstimator.no_such_method", "x.gone", None),
        ("gridest.no_such_module", "f", "x.gone", None),
        ("gridest.distributions", "sample", layers.SAMPLE, layers._points),
    ]
    original = distributions.sample
    with spans.installed(recorder, targets):
        distributions.sample(experiments.uniform_product(2), 5, 0)
    assert recorder.missing == [
        "gridest.experiments.no_such_function",
        "gridest.estimators.ProductGridEstimator.no_such_method",
        "gridest.no_such_module.f",
    ]
    assert distributions.sample is original
    assert [rec[spans.COUNTS] for rec in recorder.spans] == [{"points": 5}]


def _boxes_trial(n=4, m0=3, m1=200, seed=5):
    dist = experiments.two_component_mixture(n)
    family = families.AxisBoxes(dist.domain)
    plan = estimators.SamplingPlan(
        epsilon=0.2, delta=0.1, lvc=2, width=2,
        modulus=distributions.Modulus.identity(), split=(m0, m1),
    )
    s = distributions.sample(dist, m0 + m1, seed)
    est = estimators.build_product_grid_estimator(s, family, plan)
    dev = estimators.sup_deviation(est, family, dist, method="enumerate")
    return workloads.box_members(n), dist, family, plan, s, dev


def test_failed_frac_counts_injected_oracle_mismatch():
    members, dist, family, plan, s, dev = _boxes_trial()
    clean = workloads.Tally()
    workloads.check_boxes_trial(members, dist, family, plan, s, dev, 0, clean)
    assert (clean.attempted, clean.failed) == (2, 0)

    injected = workloads.Tally()
    workloads.check_boxes_trial(members, dist, family, plan, s, dev + 1e-9, 0, injected)
    assert (injected.attempted, injected.failed) == (2, 1)
    assert "sup-deviation" in injected.failures[0]


def test_grid_hitting_check_catches_a_wrong_pair_list():
    dist = experiments.two_component_mixture(5)
    rng = np.random.default_rng(0)
    rows = [np.zeros(25, bool), np.ones(25, bool)]
    for _ in range(4):
        bits = np.zeros(25, bool)
        bits[np.arange(5) * 5 + rng.permutation(5)] = True
        rows += [bits, ~bits]
    family = families.ExplicitFamily(dist.domain, np.array(rows))
    grid = domain.Grid(dist.domain, (np.array([0, 3]), np.array([2])))
    pairs = estimators.check_grid_hitting(family, grid, dist, 0.15)
    clean = workloads.Tally()
    workloads.check_hitting_pairs(family, grid, dist, 0.15, pairs, clean)
    assert (clean.attempted, clean.failed) == (2, 0)

    injected = workloads.Tally()
    workloads.check_hitting_pairs(family, grid, dist, 0.15, pairs[1:], injected)
    assert pairs and (injected.attempted, injected.failed) == (2, 1)


def test_parent_lists_every_workload():
    import run

    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_box_members_match_the_library():
    for n in (1, 3, 5):
        ours = workloads.box_members(n)
        theirs = families.AxisBoxes(experiments.uniform_product(n).domain).members_matrix()
        assert ours.shape == theirs.shape
        assert workloads._row_set(ours) == workloads._row_set(theirs)


def test_reference_units_follow_the_nearest_probes():
    ref = reference.Reference()
    ref.samples = [(0.0, 0.002), (0.5, 0.002), (1.0, 0.005), (10.0, 0.003), (10.2, 0.003)]
    assert ref.unit(0.2) == pytest.approx(0.003)  # probes at 0.0, 0.5 and 1.0
    assert ref.unit(10.1) == pytest.approx(0.003)
    assert ref.unit(5.0) == pytest.approx(0.005)  # none within reach: the nearest
    assert ref.spent(0.0, 1.0) == pytest.approx(0.004)
    ref.samples = [(0.01 * i, 0.001) for i in range(18)] + [(0.05, 0.1), (0.06, 0.0)]
    assert ref.unit(0.1) == pytest.approx(0.001)  # the extreme tenths are dropped


def test_reference_probes_at_most_once_per_period():
    now = [0.0]
    ref = reference.Reference(clock=lambda: now[0])
    for t in (0.0, 0.1, 0.2, 0.3, 0.31):
        now[0] = t
        ref.probe()
    assert [s for s, _ in ref.samples] == [0.0, 0.3]
    ref.probe(force=True)
    assert len(ref.samples) == 3


def test_trial_log_skips_reference_probes_when_traced():
    plain = workloads.TrialLog(reference.Reference())
    plain.run(float, 1)
    traced = workloads.TrialLog(reference.Reference(), spans.Recorder())
    traced.run(float, 1)
    assert len(plain.reference.samples) == 1
    assert traced.reference.samples == []
