"""The benchmark's workloads: fixed inputs, one timed pass, and oracle checks.

Three workloads run catalog scenarios exactly as the acceptance tests run
them; ``boxes-trace-index`` drives the explicit trace index directly.  Every
pass of a run repeats the same seeded work, so later passes must reproduce
the first pass's per-trial values bit for bit.  Oracle checks run once, on
the first pass's artifacts, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import time

import numpy as np

import spans
from gridest import distributions, domain, estimators, experiments, families

EXACT = 1e-12
CAPTURE_EVERY = 100  # the oracle checks every hundredth grid-hitting call


class TrialLog:
    """Per-trial start, seconds and value, in call order, across all passes.

    After each trial, outside its timing, the reference kernel is probed if
    its period has passed; not in a traced run, where the probe would fall
    inside the spans of the layers that called the trial and count as theirs.
    """

    def __init__(self, reference, recorder=None):
        self.reference = reference
        self.recorder = recorder
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.values: list[float] = []

    def run(self, fn, *args):
        if self.recorder is not None:
            self.recorder.trial = len(self.values)
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            if self.recorder is not None:
                self.recorder.trial = -1
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self.values.append(float(value))
        if self.recorder is None:
            self.reference.probe()
        return value


def timed_trials(log: TrialLog):
    """Time each ``trial_fn`` call that ``experiments.run_trials`` makes."""

    def wrap(original):
        @functools.wraps(original)
        def run_trials(trial_fn, trials, seed_seq):
            return original(functools.partial(log.run, trial_fn), trials, seed_seq)

        return run_trials

    return spans.patched(experiments, "run_trials", wrap)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}" if detail else what)

    def attempt(self, what: str, check) -> None:
        """Run ``check`` (which records its own ops); an exception is one failure."""
        try:
            check()
        except Exception as exc:  # the check's subject raised: record, go on
            self.op(what, False, f"raised {type(exc).__name__}: {exc}")


def digest(values) -> str:
    """SHA-256 of the per-trial values as float64 bytes."""
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


# -- catalog scenarios ---------------------------------------------------------


class ScenarioWorkload:
    """Optional calibration, then one scenario run, as Tier-1 runs them."""

    def __init__(self, name, scenario, trials, calibrate_trials=None,
                 counts=False, cross_check=False):
        self.name = name
        self.scenario = scenario
        self.trials = trials
        self.calibrate_trials = calibrate_trials
        self.counts = counts  # trial values are miss counts, not deviations
        self.cross_check = cross_check

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "knob": experiments.CALIBRATABLE.get(self.scenario)}

    def value_ok(self, value: float) -> bool:
        if self.counts:
            return value >= 0 and value.is_integer()
        return 0.0 <= value <= 1.0

    def run_pass(self, inputs, log, capture=False):
        verdicts = []
        captured = []
        capturing = capture and self.counts
        with _capture_hitting(captured) if capturing else contextlib.nullcontext():
            params = {}
            if self.calibrate_trials:
                cal = experiments.calibrate_constants(
                    self.scenario, trials=self.calibrate_trials, seed=inputs["seed"]
                )
                verdicts.append((f"{self.scenario} calibration bounded",
                                 not cal["unbounded"]))
                if not cal["unbounded"]:
                    params = {inputs["knob"]: cal["smallest_passing"]}
            result = experiments.run_scenario(experiments.ExperimentConfig(
                scenario=self.scenario, trials=self.trials, seed=inputs["seed"],
                params=params,
            ))
        verdicts.append((f"{self.scenario} verdict", bool(result.passed)))
        return verdicts, captured

    def check(self, inputs, artifacts, tally: Tally) -> None:
        if self.cross_check:
            check_assignment_vs_enumeration(inputs["seed"], tally)
        if self.counts:
            tally.op("grid-hitting calls captured", bool(artifacts),
                     "no check_grid_hitting call was seen")
            for family, grid, dist, level, pairs in artifacts:
                tally.attempt("grid-hitting pairs", functools.partial(
                    check_hitting_pairs, family, grid, dist, level, pairs, tally))


def _capture_hitting(captured: list):
    """Keep the arguments and result of every CAPTURE_EVERY-th hitting check."""
    calls = itertools.count()

    def wrap(original):
        @functools.wraps(original)
        def check_grid_hitting(family, grid, dist, eps):
            pairs = original(family, grid, dist, eps)
            if next(calls) % CAPTURE_EVERY == 0:
                captured.append((family, grid, dist, eps, pairs))
            return pairs

        return check_grid_hitting

    return spans.patched(experiments, "check_grid_hitting", wrap)


def brute_force_missed_pairs(members, probs, grid_mask, level):
    """Pairs i < j with ``P(F_i xor F_j) >= level`` and no grid cell in the xor.

    Returns the pairs and, for each, ``P(F_i xor F_j)`` for tie handling.
    """
    pairs = {}
    for i in range(members.shape[0]):
        for j in range(i + 1, members.shape[0]):
            xor = members[i] ^ members[j]
            p = float(probs[xor].sum())
            if p >= level - EXACT and not np.any(xor & grid_mask):
                pairs[(i, j)] = p
    return pairs


def check_hitting_pairs(family, grid, dist, level, pairs, tally: Tally) -> None:
    """The captured pair list, and one on a one-cell grid, against brute force.

    Planner-sized grids are almost always full, so their lists are empty;
    the one-cell grid misses many pairs and checks the non-empty case too.
    """
    members = family.members_matrix()
    probs = dist.point_prob(dist.domain.all_points())
    cell = domain.Grid(dist.domain, tuple(axis[:1] for axis in grid.axes))
    for label, g, got in (
        ("grid-hitting pairs", grid, pairs),
        ("grid-hitting pairs (one-cell grid)", cell,
         estimators.check_grid_hitting(family, cell, dist, level)),
    ):
        mask = np.zeros(dist.domain.sizes, dtype=bool)
        mask[np.ix_(*g.axes)] = True
        expect = brute_force_missed_pairs(members, probs, mask.ravel(), level)
        sure = {pair for pair, p in expect.items() if p >= level + EXACT}
        got = set(got)
        ok = sure <= got <= set(expect)
        tally.op(label, ok, f"{len(got)} pairs reported, brute force "
                 f"{len(sure)}..{len(expect)}")


def check_assignment_vs_enumeration(seed: int, tally: Tally) -> None:
    """Assignment equals enumeration (<= 1e-12) for all three estimators, n <= 6."""
    master = np.random.SeedSequence([seed, 6])
    for n, child in zip((3, 4, 5, 6), master.spawn(4)):
        family = families.PermutationGraphs(n)
        cases = (
            ("empirical-mean", experiments.uniform_product(n), 4 * n),
            ("empirical-product", experiments.ramp_product(n), 50),
            ("product-grid", experiments.two_component_mixture(n), 1000),
        )
        for (label, dist, m), seed_seq in zip(cases, child.spawn(len(cases))):
            what = f"assignment vs enumeration, {label}, n={n}"
            tally.attempt(what, functools.partial(
                _compare_methods, what, label, dist, m, seed_seq, family, tally))


def _compare_methods(what, label, dist, m, seed_seq, family, tally: Tally) -> None:
    s = distributions.sample(dist, m, seed_seq)
    if label == "empirical-mean":
        est = estimators.EmpiricalMeanEstimator(s, dist.domain)
    elif label == "empirical-product":
        est = estimators.EmpiricalProductEstimator(s, dist.domain)
    else:  # a phase-1 half of 500 points fills the n <= 6 grid: structured path
        plan = estimators.SamplingPlan(
            epsilon=0.2, delta=0.1, lvc=1, width=2,
            modulus=distributions.Modulus.identity(), split=(m // 2, m - m // 2),
        )
        est = estimators.build_product_grid_estimator(s, family, plan)
    a = estimators.sup_deviation(est, family, dist, method="assignment")
    e = estimators.sup_deviation(est, family, dist, method="enumerate")
    tally.op(what, abs(a - e) <= EXACT, f"gap {abs(a - e):.3e}")


# -- explicit trace index on axis boxes ------------------------------------------

# (n, m0) per trial: two n = 12 trials for each n = 16 trial, so the median
# trial lies inside one mode; m0 runs from a few points to a full grid.
BOXES_TRIALS = ((12, 4), (16, 8), (12, 8), (12, 32), (16, 2048), (12, 2048))
BOXES_M1 = 2000


class BoxesWorkload:
    """Sample, build the explicit estimator on AxisBoxes, enumerate sup-deviation."""

    name = "boxes-trace-index"

    def setup(self, seed: int) -> dict:
        setups = {}
        for n in sorted({n for n, _ in BOXES_TRIALS}):
            dist = experiments.two_component_mixture(n)
            setups[n] = (dist, families.AxisBoxes(dist.domain))
        plans = [
            estimators.SamplingPlan(
                epsilon=0.2, delta=0.1, lvc=2, width=2,
                modulus=distributions.Modulus.identity(), split=(m0, BOXES_M1),
            )
            for _, m0 in BOXES_TRIALS
        ]
        seeds = np.random.SeedSequence(seed).spawn(len(BOXES_TRIALS))
        return {"setups": setups, "plans": plans, "seeds": seeds}

    @staticmethod
    def value_ok(value: float) -> bool:
        return 0.0 <= value <= 1.0

    @staticmethod
    def _trial(dist, family, plan, seed_seq, keep):
        m0, m1 = plan.split
        s = distributions.sample(dist, m0 + m1, seed_seq)
        est = estimators.build_product_grid_estimator(s, family, plan)
        dev = estimators.sup_deviation(est, family, dist, method="enumerate")
        if keep is not None:
            # not the estimator: holding it would add its member matrices to
            # the peak RSS; the check rebuilds it from the same sample
            keep.append((dist, family, plan, s, dev))
        return dev

    def run_pass(self, inputs, log, capture=False):
        kept = [] if capture else None
        for (n, _), plan, seed_seq in zip(BOXES_TRIALS, inputs["plans"], inputs["seeds"]):
            dist, family = inputs["setups"][n]
            log.run(self._trial, dist, family, plan, seed_seq, kept)
        return [], kept or []

    def check(self, inputs, artifacts, tally: Tally) -> None:
        oracle = {}
        for n, (dist, family) in inputs["setups"].items():
            what = f"AxisBoxes({n}x{n}) members"

            def members_match(n=n, family=family, what=what):
                expect = box_members(n)
                got = family.members_matrix()
                same = (got.shape == expect.shape and _row_set(got) == _row_set(expect))
                tally.op(what, same, f"{got.shape[0]} rows, expected {expect.shape[0]}")
                oracle[n] = expect

            tally.attempt(what, members_match)
        for k, (dist, family, plan, s, dev) in enumerate(artifacts):
            n = dist.domain.sizes[0]
            if n in oracle:
                tally.attempt(f"boxes trial {k}", functools.partial(
                    check_boxes_trial, oracle[n], dist, family, plan, s, dev, k, tally))


def box_members(n: int) -> np.ndarray:
    """Every axis-parallel box on ``[n] x [n]`` plus the empty set, directly."""
    lo, hi = np.triu_indices(n)
    idx = np.arange(n)
    intervals = (idx[None, :] >= lo[:, None]) & (idx[None, :] <= hi[:, None])
    boxes = intervals[:, None, :, None] & intervals[None, :, None, :]
    return np.vstack([np.zeros((1, n * n), dtype=bool), boxes.reshape(-1, n * n)])


def _row_set(members: np.ndarray) -> set[bytes]:
    return {row.tobytes() for row in np.packbits(members, axis=1)}


def representative_means(members, s0, s1, n) -> tuple[np.ndarray, int]:
    """Brute force: each member's phase-2 mean of the lexicographically
    smallest member sharing its trace on the phase-1 grid; and the class count."""
    axes = [np.unique(s0[:, i]) for i in range(2)]
    cells = (axes[0][:, None] * n + axes[1][None, :]).ravel()
    traces = [row.tobytes() for row in np.packbits(members[:, cells], axis=1)]
    codes = [row.tobytes() for row in np.packbits(members, axis=1)]
    best: dict[bytes, int] = {}
    for idx, trace in enumerate(traces):
        cur = best.get(trace)
        if cur is None or codes[idx] < codes[cur]:
            best[trace] = idx
    rep = np.array([best[t] for t in traces])
    counts = np.bincount(s1[:, 0] * n + s1[:, 1], minlength=n * n)
    hits = members.astype(np.int64) @ counts
    return hits[rep] / s1.shape[0], len(best)


def check_boxes_trial(members, dist, family, plan, s, dev, k, tally: Tally) -> None:
    """Rebuild the trial's estimator from its sample and check it and ``dev``."""
    est = estimators.build_product_grid_estimator(s, family, plan)
    n = dist.domain.sizes[0]
    m0, m1 = plan.split
    expect, classes = representative_means(members, s[:m0], s[m0 : m0 + m1], n)
    got = np.array([est.estimate(row) for row in members])
    gap = float(np.max(np.abs(got - expect)))
    tally.op(f"boxes trial {k} estimates", gap <= EXACT and est.class_count == classes,
             f"max gap {gap:.3e}, classes {est.class_count} vs {classes}")
    truth = members.astype(np.float64) @ dist.point_prob(dist.domain.all_points())
    sup = float(np.max(np.abs(got - truth)))
    tally.op(f"boxes trial {k} sup-deviation", abs(sup - dev) <= EXACT,
             f"{dev!r} vs brute force {sup!r}")


WORKLOADS = {
    wl.name: wl
    for wl in (
        ScenarioWorkload("pge-calibrate", "pge-end-to-end", trials=200,
                         calibrate_trials=20, cross_check=True),
        ScenarioWorkload("deviation-scaling", "deviation-scaling", trials=200,
                         cross_check=True),
        ScenarioWorkload("grid-hitting", "grid-hitting", trials=500,
                         calibrate_trials=40, counts=True),
        BoxesWorkload(),
    )
}
