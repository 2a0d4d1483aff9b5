"""Scenario runner: determinism, reports, calibration, and the CLI."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gridest
from gridest import experiments
from gridest.cli import main as cli_main
from gridest.distributions import Modulus, sample
from gridest.estimators import EmpiricalMeanEstimator, SamplingPlan, sup_deviation
from gridest.experiments import (
    SCENARIOS,
    ExperimentConfig,
    ScenarioResult,
    _trial_pge,
    calibrate_constants,
    emit_report,
    run_scenario,
    run_trials,
    two_component_mixture,
    uniform_product,
    worker_count,
)
from gridest.families import PermutationGraphs


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
        config = tiny("pge-end-to-end", trials=6,
                      params={"n": 5, "c0": 0.01, "cross_n": 3})
        monkeypatch.setenv("GRIDEST_WORKERS", "1")
        serial = run_scenario(config)
        monkeypatch.setenv("GRIDEST_WORKERS", "2")
        parallel = run_scenario(config)
        assert serial.report.deviations == parallel.report.deviations

    def test_bad_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("GRIDEST_WORKERS", "many")
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
        monkeypatch.setenv("GRIDEST_WORKERS", "-3")
        assert worker_count(10) == 1

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

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("GRIDEST_WORKERS", "100000")
        values = run_trials(lambda child: 0.5, 3, np.random.SeedSequence(0))
        assert sizes == [3] and values.tolist() == [0.5] * 3
        run_trials(lambda child: 0.5, 1, np.random.SeedSequence(0))
        assert sizes == [3]


class TestCountTrials:
    def _plan(self, m0, m1):
        return SamplingPlan(epsilon=0.2, delta=0.1, lvc=1, width=2,
                            modulus=Modulus.for_mixture(2, 2), split=(m0, m1))

    def test_partial_phase1_grid_counts_as_failure(self):
        # one phase-1 point cannot cover [30]^2: the trial is a failure, 1.0
        dist = two_component_mixture(30).table()
        seed = np.random.SeedSequence(5)
        assert _trial_pge(seed, 30, self._plan(1, 100), dist) == 1.0

    def test_full_phase1_grid_gives_a_deviation(self):
        dist = two_component_mixture(4).table()
        value = _trial_pge(np.random.SeedSequence(5), 4, self._plan(2000, 500), dist)
        assert 0.0 <= value < 1.0


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(gridest.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, gridest; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario(ExperimentConfig(scenario="nope"))

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            run_scenario(tiny("perm-empirical-failure", params={"bogus": 1}))

    def test_every_scenario_declares_claim_and_check(self):
        for entry in SCENARIOS.values():
            assert entry.claim
            assert re.fullmatch(r"A\d+", entry.check_id)


class TestReports:
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

    def test_empty_sweep_writes_header_only(self, tmp_path):
        result = ScenarioResult(
            scenario="x", claim="c", check_id="A0", params={}, trials=0, seed=0,
            passed=True, assertion="", slack=0.0, metrics={},
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
            "perm-product-success", target_epsilon=0.9, target_delta=0.9,
            grid=(0.25, 0.5), trials=5, seed=1, params={"n": 10},
        )
        assert outcome["smallest_passing"] == 0.25
        assert outcome["monotone"] is True

    def test_unsupported_scenario_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            calibrate_constants("modulus-tc")

    def test_reports_unbounded_when_nothing_passes(self):
        # an impossible accuracy target at tiny sample sizes
        outcome = calibrate_constants(
            "perm-product-success", target_epsilon=0.001, target_delta=0.01,
            grid=(1e-9,), trials=5, seed=1, params={"n": 10, "slack": 0.0},
        )
        assert outcome["unbounded"] is True
        assert outcome["grid_maximum"] == 1e-9

    def test_product_success_calibrates_at_tight_target(self):
        outcome = calibrate_constants(
            "perm-product-success", target_epsilon=0.1, target_delta=0.1,
            grid=(0.25, 0.5, 1.0, 2.0, 4.0), trials=25, seed=3,
            params={"n": 100},
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

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(["modulus-tc"]))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
