"""Scenario runner: determinism, reports, calibration, and the CLI."""

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridest
from gridest import combinatorics, experiments, families
from gridest.cli import main as cli_main
from gridest.distributions import (
    Modulus,
    biased_cube_family,
    gilbert_varshamov_code,
    marginal_counts,
    sample,
    sample_counts,
)
from gridest.domain import CapExceededError, grid_from_counts
from gridest.estimators import EmpiricalMeanEstimator, SamplingPlan, sup_deviation
from gridest.experiments import (
    CALIBRATABLE,
    PHASE2_STRIDE,
    SCENARIOS,
    ExperimentConfig,
    ScenarioResult,
    _jsonable,
    _trial_pge,
    calibrate_constants,
    check_config,
    emit_report,
    run_scenario,
    run_trials,
    two_component_mixture,
    uniform_product,
    worker_count,
)
from gridest.families import PermutationGraphs
from gridest.info import tv_distance


def tiny(scenario, **overrides):
    params = overrides.pop("params", {})
    return ExperimentConfig(scenario=scenario, trials=overrides.pop("trials", 10),
                            seed=overrides.pop("seed", 123), params=params)


class TestDeterminism:
    def test_same_config_same_deviations(self):
        a = run_scenario(tiny("perm-empirical-failure", params={"n": 20, "m": 2}))
        b = run_scenario(tiny("perm-empirical-failure", params={"n": 20, "m": 2}))
        assert a.report.deviations == b.report.deviations

    def test_seed_changes_deviations(self):
        a = run_scenario(tiny("perm-empirical-failure", params={"n": 20, "m": 2}))
        b = run_scenario(
            tiny("perm-empirical-failure", params={"n": 20, "m": 2}, seed=124)
        )
        assert a.report.deviations != b.report.deviations

    def test_worker_count_does_not_change_results(self, monkeypatch):
        config = tiny("perm-empirical-failure", trials=8, params={"n": 12, "m": 2})
        monkeypatch.setenv("GRIDEST_WORKERS", "1")
        serial = run_scenario(config)
        monkeypatch.setenv("GRIDEST_WORKERS", "3")
        parallel = run_scenario(config)
        assert serial.report.deviations == parallel.report.deviations

    def test_worker_count_does_not_change_count_based_trials(self, monkeypatch):
        # the trial values, as run_trials returns them in this process
        values = []
        original = experiments.run_trials

        def recorded(trial_fn, trials, seed_seq):
            values.append(original(trial_fn, trials, seed_seq).tolist())
            return np.asarray(values[-1])

        monkeypatch.setattr(experiments, "run_trials", recorded)
        for config in (
            tiny("pge-end-to-end", trials=6,
                 params={"n": 5, "c0": 0.01, "cross_n": 3}),
            # two-point phase-1 grids on [8]^2: the miss counts vary from
            # trial to trial, and every trial pickles the mixture with its
            # kept table
            tiny("grid-hitting", trials=8,
                 params={"n": 8, "base_perms": 6, "c0": 4e-5}),
        ):
            values.clear()
            monkeypatch.setenv("GRIDEST_WORKERS", "1")
            serial = run_scenario(config)
            monkeypatch.setenv("GRIDEST_WORKERS", "2")
            parallel = run_scenario(config)
            assert len(values) == 2 and values[0] == values[1], config.scenario
            assert len(set(values[0])) > 1
            assert serial.metrics == parallel.metrics
            if serial.report is not None:
                assert serial.report.deviations == parallel.report.deviations

    def test_bad_worker_count_rejected(self, monkeypatch):
        for raw in ("many", "0", "-2"):
            monkeypatch.setenv("GRIDEST_WORKERS", raw)
            with pytest.raises(ValueError, match="GRIDEST_WORKERS"):
                run_scenario(tiny("perm-empirical-failure", trials=2,
                                  params={"n": 10, "m": 2}))

    def test_worker_count_does_not_change_marginal_count_trials(self, monkeypatch):
        config = tiny("perm-product-success", trials=6, params={"n": 8})
        monkeypatch.setenv("GRIDEST_WORKERS", "1")
        serial = run_scenario(config)
        monkeypatch.setenv("GRIDEST_WORKERS", "2")
        parallel = run_scenario(config)
        assert serial.report.deviations == parallel.report.deviations

    def test_empirical_failure_trials_keep_their_point_stream(self):
        # the per-trial reference: points drawn from uniform_product(n), the
        # empirical mean, assignment against the distribution itself
        n, m, trials, seed = 100, 5, 30, 2024
        got = run_scenario(tiny("perm-empirical-failure", trials=trials, seed=seed,
                                params={"n": n, "m": m})).report.deviations
        dist = uniform_product(n)
        want = [
            sup_deviation(EmpiricalMeanEstimator(sample(dist, m, child), dist.domain),
                          PermutationGraphs(n), dist, method="assignment")
            for child in np.random.SeedSequence(seed).spawn(trials)
        ]
        assert got == want


class TestWorkerCount:
    def test_clamped_to_cpus_and_trials(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("GRIDEST_WORKERS", "100000")
        assert worker_count(10) == 2
        assert worker_count(1) == 1
        monkeypatch.setenv("GRIDEST_WORKERS", "1")
        assert worker_count(10) == 1
        # below 1 is an error, not a serial run
        monkeypatch.setenv("GRIDEST_WORKERS", "-3")
        with pytest.raises(ValueError, match="GRIDEST_WORKERS"):
            worker_count(10)

    def test_pool_is_sized_by_the_clamped_count(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and runs the trials in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("GRIDEST_WORKERS", "100000")
        values = run_trials(lambda child: 0.5, 3, np.random.SeedSequence(0))
        assert sizes == [3] and values.tolist() == [0.5] * 3
        run_trials(lambda child: 0.5, 1, np.random.SeedSequence(0))
        assert sizes == [3]


class TestCountTrials:
    def _plan(self, m0, m1):
        return SamplingPlan(epsilon=0.2, delta=0.1, lvc=1, width=2,
                            modulus=Modulus(2, 2), split=(m0, m1))

    def test_partial_phase1_grid_counts_as_failure(self, monkeypatch):
        # one phase-1 point cannot cover [30]^2: the trial is a failure, 1.0,
        # and draws no phase 2
        monkeypatch.setattr(experiments, "sample_counts", _never_run)
        dist = two_component_mixture(30)
        seed = np.random.SeedSequence(5)
        family = PermutationGraphs(30)
        assert _trial_pge(seed, family, self._plan(1, 100), dist, {}) == 1.0

    def test_partial_phase1_grid_counts_as_failure_where_enumerable(self, monkeypatch):
        # 4! graphs are within the caps: the miss is read off the grid, not
        # off an enumeration error
        monkeypatch.setattr(experiments, "sample_counts", _never_run)
        dist = two_component_mixture(4)
        value = _trial_pge(np.random.SeedSequence(5), PermutationGraphs(4),
                           self._plan(1, 100), dist, {})
        assert value == 1.0

    def test_full_phase1_grid_gives_a_deviation(self):
        dist = two_component_mixture(4)
        value = _trial_pge(np.random.SeedSequence(5), PermutationGraphs(4),
                           self._plan(2000, 500), dist, {})
        assert 0.0 <= value < 1.0

    def test_phase2_draws_from_the_jumped_stream(self, monkeypatch):
        # the stride gives jumped()'s state, and trial k's phase-2 counts are
        # the multinomial of its seed's PCG64 jumped once
        for entropy in (0, 5, 2024):
            seed = np.random.SeedSequence(entropy)
            assert (np.random.PCG64(seed).advance(PHASE2_STRIDE).state
                    == np.random.PCG64(seed).jumped().state)
        drawn = []

        def recorded(dist, m, rng):
            drawn.append(sample_counts(dist, m, rng))
            return drawn[-1]

        monkeypatch.setattr(experiments, "sample_counts", recorded)
        result = run_scenario(tiny("pge-end-to-end", trials=4, seed=7,
                                   params={"n": 5, "cross_n": 3}))
        dist = two_component_mixture(5)
        children = np.random.SeedSequence(7).spawn(2)[0].spawn(4)
        want = [sample_counts(dist, result.metrics["m1"],
                              np.random.Generator(np.random.PCG64(child).jumped()))
                for child in children]
        assert len(drawn) == 4
        assert all(np.array_equal(a, b) for a, b in zip(drawn, want))


class TestPartialGridPins:
    """Seed-2024 values with partial phase-1 grids, where the full-grid
    shortcut must not apply; the catalog constants give full grids only."""

    @pytest.mark.parametrize("c0, m0, fail_freq", [(1e-5, 1, 0.85), (3e-5, 2, 0.05)])
    def test_grid_hitting(self, c0, m0, fail_freq):
        result = run_scenario(ExperimentConfig(
            scenario="grid-hitting", trials=40, seed=2024, params={"c0": c0}))
        assert result.metrics["m0"] == m0
        assert result.metrics["fail_freq"] == fail_freq

    def test_pge_end_to_end(self):
        result = run_scenario(ExperimentConfig(
            scenario="pge-end-to-end", trials=20, seed=2024, params={"c0": 0.001}))
        assert result.metrics["m0"] == 160
        assert result.metrics["success_freq"] == 0.8
        # every failure is a phase-1 miss
        assert result.report.deviations.count(1.0) == 4


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(gridest.__file__))
    env = {**os.environ, "PYTHONPATH": src, "GRIDEST_WORKERS": "1"}
    code = "import sys, gridest; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
    # nor does an assignment sup-deviation: it loads only the solver's extension
    code = (
        "import sys; from gridest.experiments import ExperimentConfig, run_scenario; "
        "run_scenario(ExperimentConfig(scenario='pge-end-to-end', trials=2, "
        "seed=2024)); "
        "print('scipy.optimize' in sys.modules, 'scipy.optimize._lsap' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False True"


def test_serial_trials_do_not_load_multiprocessing():
    src = os.path.dirname(os.path.dirname(gridest.__file__))
    env = {**os.environ, "PYTHONPATH": src, "GRIDEST_WORKERS": "1"}
    code = (
        "import sys, numpy as np; from gridest.experiments import run_trials; "
        "run_trials(lambda c: np.random.default_rng(c).random(), 3, "
        "np.random.SeedSequence(0)); "
        "print('multiprocessing' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def _never_run(*args, **kwargs):
    raise AssertionError("reached work that the checks must come before")


#: Every (scenario, param) pair of the catalog.
_PARAMS = [(name, key) for name, entry in SCENARIOS.items() for key in entry.defaults]


#: Params with a least value other than their sign's: a sample size, the
#: linear VC dimension and the most mixture components are >= 1, and a
#: mixture's largest axis size >= 2.
_POSITIVE = {"m": 1, "m_list": 1, "g": 1, "k_max": 1, "size_max": 2}


def _least(key, default):
    """The smallest value a param takes (None: any): 2 for a domain side, 1 for
    a population count, ``_POSITIVE``'s, else 0 where the default is >= 0."""
    if key in experiments._DOMAIN_SIDES:
        return 2
    if key in experiments._POPULATION_COUNTS:
        return 1
    if key in _POSITIVE:
        return _POSITIVE[key]
    first = default[0] if isinstance(default, list) else default
    return 0 if first >= 0 else None


def _good_value(default, least):
    """Values that follow ``default``: its type, and at least ``least``."""
    if isinstance(default, list):
        return st.lists(_good_value(default[0], least), min_size=1, max_size=8)
    low = -10**6 if least is None else least
    ints = st.integers(low, 10**6)
    if isinstance(default, int):
        return ints
    return st.one_of(ints, st.floats(min_value=float(low), max_value=1e6))


def _bad_value(default, least):
    """Values that do not follow ``default``: another JSON type, or a number
    below ``least``."""
    other = [st.none(), st.booleans(), st.text(max_size=5),
             st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)]
    below = [] if least is None else [
        st.integers(max_value=least - 1),
        st.floats(max_value=least, exclude_max=True).filter(lambda x: x < least),
    ]
    if isinstance(default, list):
        # a non-list, an empty list, or a list with one bad item among good ones
        mixed = st.tuples(
            st.lists(_good_value(default[0], least), max_size=7),
            _bad_value(default[0], least), st.integers(0, 7),
        ).map(lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:])
        return st.one_of(*other, st.integers(), st.floats(), st.just([]), mixed)
    if isinstance(default, int):
        other.append(st.floats())
        other.append(st.lists(st.integers(), max_size=8))
    else:
        other.append(st.lists(st.floats(), max_size=8))
    return st.one_of(*other, *below)


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario(ExperimentConfig(scenario="nope"))

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            run_scenario(tiny("perm-empirical-failure", params={"bogus": 1}))

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_catalog_defaults_pass(self, name):
        entry = SCENARIOS[name]
        config = ExperimentConfig(name, params=dict(entry.defaults))
        assert check_config(config) is entry

    def test_python_config_fields_are_checked(self):
        with pytest.raises(ValueError, match="config field 'seed' must be an integer"):
            run_scenario(ExperimentConfig("modulus-tc", seed="5"))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bad_param_rejected_before_the_runner(self, data):
        name, key = data.draw(st.sampled_from(_PARAMS))
        default = SCENARIOS[name].defaults[key]
        value = data.draw(_bad_value(default, _least(key, default)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(SCENARIOS, name,
                       dataclasses.replace(SCENARIOS[name], runner=_never_run))
            with pytest.raises(ValueError, match=f"{name} param '{key}' must be"):
                run_scenario(ExperimentConfig(name, trials=1, params={key: value}))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_good_param_passes(self, data):
        name, key = data.draw(st.sampled_from(_PARAMS))
        default = SCENARIOS[name].defaults[key]
        value = data.draw(_good_value(default, _least(key, default)))
        assert check_config(ExperimentConfig(name, params={key: value})).name == name

    def test_every_scenario_declares_claim_and_check(self):
        for entry in SCENARIOS.values():
            assert entry.claim
            assert re.fullmatch(r"A\d+", entry.check_id)

    def test_each_knob_is_a_settable_default(self):
        for entry in SCENARIOS.values():
            if entry.knob is not None:
                assert entry.knob in entry.defaults and entry.knob not in entry.fixed

    def test_calibratable_lists_the_knobs_in_catalog_order(self):
        assert list(CALIBRATABLE.items()) == [
            ("perm-product-success", "constant"), ("grid-hitting", "c0"),
            ("pge-end-to-end", "c0"),
        ]


#: Every (scenario, fixed value) pair of the catalog.
_FIXED = [(name, key) for name, entry in SCENARIOS.items() for key in entry.fixed]


def _run_config(tmp_path, scenario, params) -> int:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": scenario, "params": params}))
    return cli_main(["run", "--config", str(config)])


class TestFixedParams:
    """A claim's thresholds, tolerances and slacks: no config sets them, and
    every run reads them and lists them in its report."""

    def test_no_name_is_both_settable_and_fixed(self):
        assert all(not set(e.defaults) & set(e.fixed) for e in SCENARIOS.values())

    @pytest.mark.parametrize("name, key", _FIXED)
    def test_a_fixed_value_is_refused(self, tmp_path, capsys, name, key):
        value = SCENARIOS[name].fixed[key]
        message = (f"{name} param {key!r} = {value!r} is fixed by the claim and "
                   f"cannot be set")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_config(ExperimentConfig(name, params={key: value}))
        assert _run_config(tmp_path, name, {key: value}) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_config_cannot_buy_a_pass(self, tmp_path, capsys):
        # m = 400 >> sqrt(20)/2: the empirical mean is accurate, the claim fails
        params = {"n": 20, "m": 400}
        assert _run_config(tmp_path, "perm-empirical-failure", params) == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert _run_config(tmp_path, "perm-empirical-failure",
                           {**params, "target_freq": 0.0}) == 2
        assert _run_config(tmp_path, "deviation-scaling",
                           {"slope_lo": -100, "slope_hi": 100}) == 2
        err = capsys.readouterr().err
        assert "param 'target_freq' = 0.75 is fixed" in err
        assert "param 'slope_lo' = -0.65 is fixed" in err

    @pytest.mark.parametrize("name", [name for name, e in SCENARIOS.items() if e.fixed])
    def test_the_runner_and_the_report_see_every_fixed_value(self, name, monkeypatch):
        seen = []

        def runner(params, trials, seed, memo):
            seen.append(params)
            return _on_bound(entry, params), {}, None

        entry = SCENARIOS[name]
        monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(entry, runner=runner))
        result = run_scenario(ExperimentConfig(name, trials=1))
        assert seen == [result.params] == [{**entry.defaults, **entry.fixed}]


def _on_bound(entry, params, metrics=None) -> dict:
    """Metrics that put each check of ``entry`` exactly on its bound; a
    metric of two checks sits on the first one's."""
    metrics = {"union_bound": 0.0, **(metrics or {})}  # A4's bound reads it
    for check in entry.checks:
        metrics.setdefault(check.metric, check.bound(params, metrics))
    return metrics


#: Every (scenario, check index) pair of the catalog.
_CHECKS = [(name, i) for name, entry in SCENARIOS.items()
           for i in range(len(entry.checks))]


class TestChecks:
    """``run_scenario`` judges each check of the entry on the runner's
    metrics, and derives ``passed``, ``assertion`` and ``checks`` from them."""

    @staticmethod
    def _run(monkeypatch, name, value_of):
        entry = SCENARIOS[name]

        def runner(params, trials, seed, memo):
            return value_of(entry, params), {}, None

        monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(entry, runner=runner))
        return run_scenario(ExperimentConfig(name, trials=1))

    @pytest.mark.parametrize("name, index", _CHECKS)
    def test_a_metric_on_its_bound_passes_and_one_step_past_fails(
            self, monkeypatch, name, index):
        check = SCENARIOS[name].checks[index]

        def at(step):
            def value_of(entry, params):
                bound = check.bound(params, _on_bound(entry, params))
                beyond = -math.inf if check.op == ">=" else math.inf
                value = math.nextafter(bound, beyond) if step else bound
                return _on_bound(entry, params, {check.metric: value})
            return value_of

        on = self._run(monkeypatch, name, at(False))
        assert on.passed and on.checks[index]["margin"] == 0
        past = self._run(monkeypatch, name, at(True))
        row = past.checks[index]
        assert not past.passed and row["pass"] is False and row["margin"] < 0
        assert [c["pass"] for c in past.checks].count(False) == 1
        shown = f"{check.metric} = {row['value']} must be {check.op} {row['bound']}"
        assert shown in past.assertion.split("; ")

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_a_missing_metric_names_the_scenario_and_the_metric(
            self, monkeypatch, name):
        check = SCENARIOS[name].checks[-1]

        def value_of(entry, params):
            metrics = _on_bound(entry, params)
            del metrics[check.metric]
            return metrics

        with pytest.raises(LookupError, match=re.escape(
                f"{name} returned no metric {check.metric!r} for its check")):
            self._run(monkeypatch, name, value_of)

    def test_a_report_row_per_check(self):
        result = run_scenario(tiny("modulus-tc", trials=1, params={"instances": 2}))
        assert [(c["metric"], c["op"], c["bound"]) for c in result.checks] == [
            ("violations", "<=", 0), ("asym_gap", "<=", 0.01)]
        for row in result.checks:
            assert row["value"] == result.metrics[row["metric"]]
            assert row["margin"] == row["bound"] - row["value"]
        assert result.passed is all(c["pass"] for c in result.checks)

    @pytest.mark.parametrize("slope, passed", [(-0.5, True), (-0.3, False)])
    def test_an_unmeasured_ratio_is_shown_and_not_judged(
            self, monkeypatch, slope, passed):
        result = self._run(monkeypatch, "deviation-scaling", lambda e, p: {
            "slope": slope, "ratio_4096_1024": None, "means": []})
        assert result.passed is passed
        assert result.checks[2] == {"metric": "ratio_4096_1024", "op": "<=",
                                    "value": None, "bound": 0.65, "margin": None,
                                    "pass": None}
        assert result.assertion.endswith(
            "; ratio_4096_1024 = not measured must be <= 0.65")

    def test_deviation_scaling_without_1024_and_4096_is_judged_on_the_slope(self):
        result = run_scenario(tiny("deviation-scaling", trials=4,
                                   params={"m_list": [256, 512]}))
        slope = result.metrics["slope"]
        assert result.metrics["ratio_4096_1024"] is None
        assert result.checks[2]["value"] is None and result.checks[2]["pass"] is None
        assert result.passed and -0.65 <= slope <= -0.35


class TestGridHittingCaps:
    """The caps are checked before the family is built or a member drawn."""

    def test_cell_cap_before_the_family(self, monkeypatch):
        monkeypatch.setattr(experiments, "_hitting_family", _never_run)
        # 1025^2 = 1,050,625 points, over the MAX_CELLS cap
        with pytest.raises(CapExceededError):
            run_scenario(tiny("grid-hitting", trials=1, params={"n": 1025}))

    def test_member_cap_before_any_member(self, monkeypatch):
        monkeypatch.setattr(experiments, "perm_graph_bits", _never_run)
        with pytest.raises(CapExceededError):
            run_scenario(tiny("grid-hitting", trials=1, params={"base_perms": 2**19}))

    def test_cell_cap_before_any_member(self, monkeypatch):
        monkeypatch.setattr(experiments, "perm_graph_bits", _never_run)
        monkeypatch.setattr(families, "MAX_MEMBER_CELLS", 8 * 8 * 9)
        # 2 + 2 * 4 members of 8 x 8 points: 640 cells
        with pytest.raises(CapExceededError, match=re.escape(
                "10 members x 64 points = 640 cells, cap 576")):
            run_scenario(tiny("grid-hitting", trials=1,
                              params={"n": 8, "base_perms": 4}))


class TestFanoSeparation:
    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_blocked_minimum_equals_the_pairwise_tv_minimum(self, d):
        result = run_scenario(tiny("fano-omega-d", trials=1, params={"d": d}))
        code = gilbert_varshamov_code(d, max(1, d // 4))
        tables = [f.table().probs
                  for f in biased_cube_family(d, result.metrics["nu"], code)]
        want = min(tv_distance(p, q) for p, q in itertools.combinations(tables, 2))
        assert result.metrics["min_tv"] == want
        assert result.metrics["code_distance"] == min(
            int(np.sum(a != b)) for a, b in itertools.combinations(code, 2))

    def test_the_only_closest_pair_is_the_last_one(self, monkeypatch):
        # Hamming distances 8, 6 and 2: the minimum is at rows (1, 2) alone
        code = np.array([[-1] * 8, [1] * 8, [1] * 6 + [-1] * 2])
        monkeypatch.setattr(experiments, "gilbert_varshamov_code", lambda d, k: code)
        result = run_scenario(tiny("fano-omega-d", trials=1))
        p, q = (f.table().probs for f in biased_cube_family(8, result.metrics["nu"],
                                                            code[1:]))
        assert result.metrics["min_tv"] == tv_distance(p, q)
        assert result.metrics["code_distance"] == 2 and result.passed


class TestFanoTableCap:
    """The stacked code tables are capped before any of them is built."""

    def test_cap_names_the_size(self, monkeypatch):
        # the default d = 8 code has 128 words: 128 tables of 256 cells
        monkeypatch.setattr(experiments, "MAX_CELLS", 128 * 256 - 1)
        monkeypatch.setattr(experiments, "biased_cube_family", _never_run)
        with pytest.raises(CapExceededError, match=re.escape(
                "stacks 128 tables of 2^8 cells: 32768 cells (0.2 MiB), cap 32767")):
            run_scenario(tiny("fano-omega-d", trials=1))

    def test_the_cap_itself_passes(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_CELLS", 128 * 256)
        assert run_scenario(tiny("fano-omega-d", trials=1)).metrics["code_size"] == 128

    def test_a_code_too_large_by_its_least_size_is_never_built(self, monkeypatch):
        # d = 20, distance 5: a greedy code keeps >= 2^20 / 6196 = 170 words
        monkeypatch.setattr(experiments, "gilbert_varshamov_code", _never_run)
        with pytest.raises(CapExceededError, match="stacks at least 170 tables"):
            run_scenario(tiny("fano-omega-d", trials=1, params={"d": 20}))

    def test_cli_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "fano-omega-d", "params": {"d": 13}}))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert ("error: fano-omega-d at d = 13 stacks 512 tables of 2^13 cells: "
                "4194304 cells (32.0 MiB), cap 1048576") in capsys.readouterr().err


class TestReports:
    def test_arrays_become_valid_json(self):
        values = [np.nan, np.inf, -np.inf, 0.5]
        want = ["nan", "inf", "-inf", 0.5]
        got = _jsonable({"a": np.array(values), "b": np.array([values]),
                         "c": np.float64(np.nan), "d": values})
        assert got == {"a": want, "b": [want], "c": "nan", "d": want}
        json.dumps(got, allow_nan=False)

    def test_rerun_byte_identical_except_wall_time(self, tmp_path):
        paths = []
        for i in range(2):
            result = run_scenario(tiny("modulus-tc", trials=1,
                                       params={"instances": 3}))
            path = tmp_path / f"report{i}.json"
            emit_report(result, path)
            paths.append(path)
        texts = [
            re.sub(r'"wall_ms": [0-9.e+-]+', '"wall_ms": 0', p.read_text())
            for p in paths
        ]
        assert texts[0] == texts[1]

    def test_report_carries_claim_and_check_id(self, tmp_path):
        result = run_scenario(tiny("modulus-tc", trials=1, params={"instances": 2}))
        path = tmp_path / "report.json"
        emit_report(result, path)
        data = json.loads(path.read_text())
        assert data["claim"] and data["check_id"] == "A6"

    def test_scaling_curve_csv(self, tmp_path):
        result = run_scenario(
            tiny("deviation-scaling", trials=3,
                 params={"n": 20, "m_list": [64, 256, 1024, 4096]})
        )
        path = tmp_path / "scaling.json"
        emit_report(result, path)
        csv_path = tmp_path / "scaling.scaling.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "m,mean_dev,q90_dev"
        assert len(lines) == 5

    def test_dimension_report_table(self, tmp_path):
        result = run_scenario(
            tiny("ssp-audit", trials=1,
                 params={"random_families": 3, "report_rows": 4})
        )
        path = tmp_path / "audit.json"
        emit_report(result, path)
        lines = (tmp_path / "audit.dimension_report.csv").read_text().splitlines()
        assert lines[0] == "family,n,d,g,vc,traces,ssp_bound,rate_bound"
        assert len(lines) == 5

    def test_ssp_audit_computes_each_certificate_once(self, monkeypatch):
        # the default population: 4 permutation-graph families, 2 union
        # families and the Latin squares, each on its full grid, then 100
        # random families, each on its full grid and a sampled one
        calls = {"linear_vc_dimension": 0, "count_traces": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        # the report rows are built in combinatorics, the audit in experiments
        for module in (combinatorics, experiments):
            for name in calls:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        result = run_scenario(ExperimentConfig("ssp-audit", trials=1, seed=2024))
        assert result.passed
        assert calls == {"linear_vc_dimension": 107, "count_traces": 207}

    def test_empty_sweep_writes_header_only(self, tmp_path):
        result = ScenarioResult(
            scenario="x", claim="c", check_id="A0", params={}, trials=0, seed=0,
            passed=True, assertion="", checks=[], metrics={},
            curves={"scaling": {"columns": ["m", "mean_dev", "q90_dev"],
                                "rows": []}},
        )
        path = tmp_path / "empty.json"
        emit_report(result, path)
        assert (tmp_path / "empty.scaling.csv").read_text().strip() == (
            "m,mean_dev,q90_dev"
        )

    def test_deviation_arrays_identical_across_runs(self):
        a = run_scenario(tiny("perm-empirical-failure", params={"n": 15, "m": 2}))
        b = run_scenario(tiny("perm-empirical-failure", params={"n": 15, "m": 2}))
        assert a.to_dict()["report"]["deviations"] == (
            b.to_dict()["report"]["deviations"]
        )


class TestCalibration:
    def test_easy_target_passes_at_smallest_constant(self):
        outcome = calibrate_constants(
            "perm-product-success", grid=(0.25, 0.5), trials=5, seed=1,
            params={"n": 10, "eps": 0.9, "delta": 0.9},
        )
        assert outcome["smallest_passing"] == 0.25
        assert outcome["monotone"] is True

    def test_unsupported_scenario_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            calibrate_constants("modulus-tc")

    @pytest.mark.parametrize("grid", [(), (4.0, 0.5, 1.0), (0.5, 0.5), (0.5, math.nan)])
    def test_grid_must_increase_strictly(self, grid, monkeypatch):
        # rejected before any scenario runs
        monkeypatch.setattr(experiments, "run_scenario", _never_run)
        with pytest.raises(ValueError, match="calibration grid must be non-empty "
                           r"and strictly increasing, got \["):
            calibrate_constants("perm-product-success", grid=grid, trials=5)

    def test_reports_unbounded_when_nothing_passes(self):
        # an impossible accuracy target at tiny sample sizes
        outcome = calibrate_constants(
            "perm-product-success", grid=(1e-9,), trials=5, seed=1,
            params={"n": 10, "eps": 0.001, "delta": 0.01},
        )
        assert outcome["unbounded"] is True
        assert outcome["grid_maximum"] == 1e-9

    @pytest.mark.parametrize("name", list(CALIBRATABLE))
    def test_a_set_knob_is_refused(self, tmp_path, capsys, monkeypatch, name):
        # refused before any run, by the function and by the CLI (exit 2)
        monkeypatch.setattr(experiments, "run_scenario", _never_run)
        knob = CALIBRATABLE[name]
        message = f"{name} param {knob!r} is the calibrated constant and cannot be set"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibrate_constants(name, params={knob: 2.0})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": name, "params": {knob: 2.0}}))
        assert cli_main(["calibrate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_product_success_calibrates_at_tight_target(self):
        outcome = calibrate_constants(
            "perm-product-success", grid=(0.25, 0.5, 1.0, 2.0, 4.0), trials=25,
            seed=3, params={"n": 100, "eps": 0.1, "delta": 0.1},
        )
        assert outcome["smallest_passing"] is not None
        assert outcome["monotone"] is True

    def test_pge_cross_check_runs_once_per_calibration(self, monkeypatch):
        calls = []
        original = experiments._pge_cross_check

        def counted(*args):
            calls.append(args[:3])
            return original(*args)

        monkeypatch.setattr(experiments, "_pge_cross_check", counted)
        kwargs = dict(grid=(0.25, 0.5, 1.0), trials=2, seed=4,
                      params={"n": 5, "cross_n": 3})
        first = calibrate_constants("pge-end-to-end", **kwargs)
        assert calls == [(3, 0.2, 0.1)]
        second = calibrate_constants("pge-end-to-end", **kwargs)
        assert len(calls) == 2 and first == second
        single = run_scenario(tiny("pge-end-to-end", trials=2, seed=4,
                                params={"n": 5, "cross_n": 3, "c0": 0.5}))
        assert len(calls) == 3 and single.passed == first["passes"][1]

    def test_full_grid_deviations_solve_once_per_calibration(self, monkeypatch):
        # c0 moves only phase 1: each trial index with a full grid at some
        # constant is solved once, and each constant's run is a standalone one
        n, trials, seed = 5, 8, 4
        grid = (1e-5, 3e-5, 1e-4, 1e-3, 0.25)
        params = {"n": n, "cross_n": 3}
        solves = []
        solve = experiments.sup_deviation

        def counted(est, family, dist, method):
            if family.domain.sizes == (n, n):
                solves.append(est)
            return solve(est, family, dist, method=method)

        runs = []
        standalone = experiments.run_scenario

        def recorded(config, memo=None):
            runs.append(standalone(config, memo))
            return runs[-1]

        monkeypatch.setattr(experiments, "sup_deviation", counted)
        monkeypatch.setattr(experiments, "run_scenario", recorded)
        calibrate_constants("pge-end-to-end", grid=grid, trials=trials, seed=seed,
                            params=params)
        dist = two_component_mixture(n)
        children = np.random.SeedSequence(seed).spawn(2)[0].spawn(trials)
        full_at = [
            {k for k, child in enumerate(children)
             if grid_from_counts(marginal_counts(dist, run.metrics["m0"], child),
                                 dist.domain).is_full}
            for run in runs
        ]
        assert any(len(full) < trials for full in full_at)
        assert len(solves) == len(set().union(*full_at)) < sum(map(len, full_at))
        for c0, run in zip(grid, runs):
            alone = standalone(tiny("pge-end-to-end", trials=trials, seed=seed,
                                    params={**params, "c0": c0}))
            assert run.metrics == alone.metrics
            assert run.report.deviations == alone.report.deviations

    def test_workers_give_the_serial_calibration_and_report(self, monkeypatch):
        # worker processes fill only their own copies of the kept deviations;
        # a memo filled serially is read by them, and every number agrees
        kwargs = dict(grid=(1e-4, 1e-3, 0.25), trials=6, seed=4,
                      params={"n": 5, "cross_n": 3})
        outcomes, reports = [], []
        for workers in ("1", "2"):
            monkeypatch.setenv("GRIDEST_WORKERS", workers)
            outcomes.append(calibrate_constants("pge-end-to-end", **kwargs))
            memo = {}
            monkeypatch.setenv("GRIDEST_WORKERS", "1")
            run_scenario(tiny("pge-end-to-end", trials=6, seed=4,
                              params={**kwargs["params"], "c0": 1e-3}), memo)
            monkeypatch.setenv("GRIDEST_WORKERS", workers)
            config = tiny("pge-end-to-end", trials=6, seed=4, params={
                **kwargs["params"], "c0": outcomes[-1]["smallest_passing"]})
            reports.append(run_scenario(config, memo).to_dict())
            reports[-1].pop("wall_ms")
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["smallest_passing"] is not None
        assert reports[0] == reports[1]


class TestCli:
    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "modulus-tc",
            "trials": 1,
            "seed": 5,
            "params": {"instances": 2},
        }))
        out = tmp_path / "report.json"
        code = cli_main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "[PASS] modulus-tc" in capsys.readouterr().out

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "perm-empirical-failure",
            "trials": 500,
            "params": {"n": 12, "m": 2},
        }))
        out = tmp_path / "r.json"
        code = cli_main([
            "run", "--config", str(config), "--trials", "4", "--seed", "9",
            "--out", str(out),
        ])
        data = json.loads(out.read_text())
        assert data["trials"] == 4 and data["seed"] == 9
        assert code in (0, 1)

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "modulus-tc", "typo": 1}))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_list_prints_catalog(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert [line for line in out.splitlines() if "calibratable" in line] == [
            "perm-product-success  (check A2) [calibratable: constant]",
            "grid-hitting  (check A10) [calibratable: c0]",
            "pge-end-to-end  (check A11) [calibratable: c0]",
        ]
        # the whole listing, byte for byte
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "5e4dfa91697593f94fd48778b772f6191a670df2410af8b8356cdb4cc1a727d7")

    def test_calibrate_writes_the_json_it_prints(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        code = cli_main([
            "calibrate", "perm-product-success", "--target-eps", "0.9",
            "--target-delta", "0.9", "--grid", "0.25", "--trials", "4",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed
        assert printed["smallest_passing"] == 0.25

    def test_calibrate_smoke(self, tmp_path, capsys):
        code = cli_main([
            "calibrate", "perm-product-success", "--target-eps", "0.9",
            "--target-delta", "0.9", "--grid", "0.25", "--trials", "4",
            "--seed", "2",
        ])
        assert code == 0
        assert '"smallest_passing"' in capsys.readouterr().out

    @pytest.mark.parametrize("fields, match", [
        ({"params": [1, 2]}, "'params' must be an object"),
        ({"trials": "x"}, "'trials' must be null or an integer"),
        ({"trials": 0}, "'trials' must be null or an integer"),
        ({"trials": True}, "'trials' must be null or an integer"),
        ({"seed": "5"}, "'seed' must be an integer"),
        ({"seed": 1.5}, "'seed' must be an integer"),
        ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
        ({"scenario": ["modulus-tc"]}, "'scenario' must be a string"),
        ({"out": 3}, "'out' must be null or a string"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, fields, match):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "modulus-tc", **fields}))
        for command in ("run", "calibrate"):
            assert cli_main([command, "--config", str(config)]) == 2
            assert f"error: config field {match}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", [
        name for name, entry in SCENARIOS.items() if entry.default_trials == 1
    ])
    def test_single_pass_scenario_rejects_trials(self, scenario, capsys):
        assert cli_main(["run", scenario, "--trials", "50"]) == 2
        assert "trials must be 1, got 50" in capsys.readouterr().err

    @pytest.mark.parametrize("command, scenario, params", [
        ("run", "deviation-scaling", {"n": "x"}),
        ("run", "deviation-scaling", {"m_list": []}),
        ("run", "pge-end-to-end", {"eps": "a"}),
        ("run", "pge-end-to-end", {"delta": "x"}),
        ("calibrate", "grid-hitting", {"n": "x"}),
        ("run", "modulus-mixture", {"instances": -1}),
        ("run", "grid-hitting", {"base_perms": -3}),
        ("run", "ssp-audit", {"report_rows": -1}),
        ("run", "perm-product-success", {"n": 1}),
        ("run", "pge-end-to-end", {"n": 1}),
        ("run", "grid-hitting", {"n": 1}),
        ("run", "pge-end-to-end", {"cross_n": 1}),
        ("calibrate", "pge-end-to-end", {"cross_n": 1}),
        ("run", "grid-hitting", {"base_perms": 0}),
        ("calibrate", "grid-hitting", {"base_perms": 0}),
        ("run", "modulus-mixture", {"instances": 0}),
        ("run", "modulus-tc", {"instances": 0}),
        ("run", "ssp-audit", {"random_families": 0}),
        ("run", "fano-omega-d", {"fano_instances": 0}),
        ("run", "symdiff-vc", {"vc_families": 0}),
        ("run", "symdiff-vc", {"lvc_families": 0}),
        ("run", "perm-empirical-failure", {"m": 0}),
        ("run", "deviation-scaling", {"m_list": [0, 256]}),
        ("run", "grid-hitting", {"g": 0}),
        ("calibrate", "grid-hitting", {"g": 0}),
        ("run", "modulus-mixture", {"k_max": 0}),
        ("run", "modulus-mixture", {"size_max": 1}),
    ])
    def test_bad_param_exits_2(self, tmp_path, capsys, command, scenario, params):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": scenario, "params": params}))
        assert cli_main([command, "--config", str(config)]) == 2
        (name,) = params
        assert f"error: {scenario} param {name!r} must be" in capsys.readouterr().err

    def test_point_mass_deviation_scaling_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "deviation-scaling", "trials": 5,
                                      "params": {"n": 1}}))
        assert cli_main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error: deviation-scaling param 'n' must be an integer >= 2, got 1" in err

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_no_scenario_exits_2(self, command, capsys):
        assert cli_main([command, "--seed", "3"]) == 2
        assert "error: no scenario given" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_negative_seed_flag_exits_2(self, command, capsys):
        # refused by the config check, before numpy's SeedSequence sees it
        assert cli_main([command, "grid-hitting", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error: config field 'seed' must be an integer >= 0, got -1" in err

    def test_single_m_deviation_scaling_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "deviation-scaling",
                                      "params": {"m_list": [256]}}))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "error: m_list needs at least two distinct m" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, params, match", [
        ("perm-product-success", {"eps": 0}, "epsilon and delta must lie in (0, 1)"),
        ("perm-product-success", {"constant": math.inf},
         "product-case size is not finite"),
        ("fano-omega-d", {"d": 0}, "d too small"),
    ])
    def test_degenerate_planner_input_exits_2(self, tmp_path, capsys, scenario,
                                              params, match):
        # these pass the param check and are rejected by the scenario itself
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": scenario, "params": params}))
        assert cli_main(["run", "--config", str(config), "--trials", "1"]) == 2
        assert f"error: {match}" in capsys.readouterr().err

    def test_unsorted_calibration_grid_exits_2(self, capsys):
        # every constant here passes: an unsorted grid would name 4.0 smallest
        argv = ["calibrate", "perm-product-success", "--trials", "20", "--seed", "1"]
        assert cli_main(argv + ["--grid", "4,0.5,1"]) == 2
        err = capsys.readouterr().err
        assert ("error: calibration grid must be non-empty and strictly increasing, "
                "got [4.0, 0.5, 1.0]") in err
        assert cli_main(argv + ["--grid", "0.5,1,4"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["passes"] == [True] * 3 and outcome["smallest_passing"] == 0.5

    def test_infinite_calibration_constant_exits_2(self, capsys):
        assert cli_main(["calibrate", "grid-hitting", "--grid", "inf"]) == 2
        assert "phase-1 size is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, size", [
        ("grid-hitting", "phase-1 size is 0 (c0 = 0.0)"),
        ("pge-end-to-end", "phase-1 size is 0 (c0 = 0.0)"),
        ("perm-product-success", "product-case size is 0 (constant = 0.0)"),
    ])
    def test_zero_calibration_constant_exits_2(self, scenario, size, capsys):
        assert cli_main(["calibrate", scenario, "--grid", "0"]) == 2
        assert f"error: {size}: need >= 1" in capsys.readouterr().err

    def test_overflowing_phase1_constant_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "grid-hitting",
                                      "params": {"c0": 1e308}}))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "phase-1 size is not finite" in capsys.readouterr().err

    def test_untabulable_end_to_end_domain_exits_2(self, tmp_path, capsys):
        # phase 2 is planned for 2000! classes; the 2000 x 2000 table is over
        # the cell cap
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "pge-end-to-end",
                                      "params": {"n": 2000}}))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "too large to tabulate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--config"],
        ["run", "modulus-tc", "--out"],
        ["calibrate", "perm-product-success", "--target-eps", "0.9",
         "--target-delta", "0.9", "--grid", "0.25", "--trials", "4", "--out"],
    ])
    def test_directory_path_exits_2(self, tmp_path, capsys, argv):
        assert cli_main(argv + [str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""  # rejected before the run

    @pytest.mark.parametrize("argv", [
        ["run", "fano-omega-d"],
        ["calibrate", "perm-product-success", "--grid", "0.25", "--trials", "4"],
    ])
    def test_missing_out_directory_exits_2_before_the_run(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        for name in ("run_scenario", "calibrate_constants"):
            monkeypatch.setattr(f"gridest.cli.{name}", _never_run)
        out = tmp_path / "missing" / "report.json"
        assert cli_main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out path {out}: {out.parent} is not a directory\n"
        assert captured.out == "" and not out.parent.exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(["modulus-tc"]))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
