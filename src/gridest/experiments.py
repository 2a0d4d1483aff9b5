"""Seeded, configuration-driven scenarios with machine-readable reports.

Every scenario validates one mathematical claim with an explicit Monte Carlo
slack, runs deterministically given its master seed (independently of the
worker count), and emits a JSON result plus CSV curves.  Trials derive their
seeds from the master seed by ``SeedSequence.spawn``, so parallel and serial
execution produce byte-identical numbers.

The worker count is read from the ``GRIDEST_WORKERS`` environment variable;
it affects speed only, never results.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .combinatorics import (
    count_traces,
    dimension_report_rows,
    enumerate_hd_permutations,
    grid_ssp_bound_maxside,
    linear_vc_dimension,
    random_explicit_family,
    union_family_lower_check,
    vc_dimension,
)
from .distributions import (
    Distribution,
    JointTable,
    MixtureDistribution,
    Modulus,
    ProductDistribution,
    biased_cube_family,
    code_rate,
    exhaustive_event_probabilities,
    box_projection,
    event_probability,
    gilbert_varshamov_code,
    marginal_counts,
    mixture_modulus,
    mixture_tightness_instance,
    sample,
    sample_counts,
    tc_modulus,
    total_correlation,
)
from .domain import (
    NotEnumerableError,
    ProductDomain,
    build_grid,
    grid_from_counts,
)
from .estimators import (
    DeviationReport,
    EmpiricalMeanEstimator,
    EmpiricalProductEstimator,
    ProductGridEstimator,
    SamplingPlan,
    build_product_grid_estimator,
    check_grid_hitting,
    phase1_size,
    phase2_size,
    product_case_size,
    sup_deviation,
)
from .families import (
    ExplicitFamily,
    PermutationGraphs,
    SetFamily,
    UnionsOfPermutations,
    perm_graph_bits,
    symdiff_family,
)
from .info import kl_divergence, tv_distance

WORKERS_ENV = "GRIDEST_WORKERS"


def worker_count(trials: int) -> int:
    """``GRIDEST_WORKERS``, clamped to ``[1, min(cpu count, trials)]``."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, min(value, os.cpu_count() or 1, trials))


def run_trials(trial_fn, trials: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """Run seeded trials, in order, optionally across processes."""
    children = seed_seq.spawn(trials)
    workers = worker_count(trials)
    if workers > 1:
        chunk = max(1, trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(trial_fn, children, chunksize=chunk))
    else:
        values = [trial_fn(child) for child in children]
    return np.asarray(values, dtype=float)


# -- configuration and results ---------------------------------------------------


@dataclass
class ExperimentConfig:
    scenario: str
    trials: int | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)
    out: str | None = None


@dataclass
class ScenarioResult:
    scenario: str
    claim: str
    check_id: str
    params: dict
    trials: int
    seed: int
    passed: bool
    assertion: str
    slack: float
    metrics: dict
    curves: dict = field(default_factory=dict)
    report: DeviationReport | None = None
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


# -- shared constructions ----------------------------------------------------------


def ramp_marginal(n: int, reverse: bool = False) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=float)
    if reverse:
        p = p[::-1].copy()
    return p / p.sum()


def uniform_product(n: int) -> ProductDistribution:
    domain = ProductDomain.of_sizes(n, n)
    u = np.full(n, 1.0 / n)
    return ProductDistribution(domain, [u, u])


def ramp_product(n: int) -> ProductDistribution:
    domain = ProductDomain.of_sizes(n, n)
    return ProductDistribution(domain, [ramp_marginal(n), ramp_marginal(n)])


def two_component_mixture(n: int) -> MixtureDistribution:
    """A full-support 2-component mixture of products on ``[n] x [n]``."""
    domain = ProductDomain.of_sizes(n, n)
    comp1 = ProductDistribution(
        domain, [ramp_marginal(n), ramp_marginal(n, reverse=True)]
    )
    comp2 = ProductDistribution(
        domain, [ramp_marginal(n, reverse=True), ramp_marginal(n)]
    )
    return MixtureDistribution([0.5, 0.5], [comp1, comp2])


# -- trial functions (module level for pickling) ------------------------------------


# Trials draw only what their estimator reads: marginal counts for the
# empirical product, the phase-1 grid and phase-2 cell counts for the product
# grid, and points for the empirical mean (cheaper than counts at m << n^2).


def _trial_empirical(
    seed_seq, draw, build, dist: Distribution, m: int,
    family: PermutationGraphs, truth: JointTable,
) -> float:
    est = build(draw(dist, m, seed_seq), dist.domain)
    return sup_deviation(est, family, truth, method="assignment")


def _empirical_trial_fn(draw, build, dist: Distribution) -> functools.partial:
    """``_trial_empirical`` with a run's fixed inputs bound; ``m`` is left open."""
    return functools.partial(
        _trial_empirical, draw=draw, build=build, dist=dist,
        family=PermutationGraphs(dist.domain.sizes[0]), truth=dist.table(),
    )


def _trial_grid_hitting(
    seed_seq, family: SetFamily, dist: JointTable, m0: int, level: float
) -> float:
    grid = grid_from_counts(sample_counts(dist, m0, seed_seq), dist.domain)
    return float(len(check_grid_hitting(family, grid, dist, level)))


def _trial_pge(seed_seq, n: int, plan: SamplingPlan, dist: JointTable) -> float:
    m0, m1 = plan.split
    rng = np.random.default_rng(seed_seq)
    phase1 = sample_counts(dist, m0, rng)
    phase2 = sample_counts(dist, m1, rng)
    family = PermutationGraphs(n)
    try:
        est = ProductGridEstimator.from_counts(
            grid_from_counts(phase1, dist.domain), phase2, family, plan
        )
    except NotEnumerableError:
        # phase-1 grid missed part of the domain; count the trial as a failure
        return 1.0
    return sup_deviation(est, family, dist, method="assignment")


# -- scenario runners ----------------------------------------------------------------


def _run_perm_empirical_failure(params, trials, seed, memo):
    n, m = params["n"], params["m"]
    threshold, target, slack = (
        params["dev_threshold"],
        params["target_freq"],
        params["slack"],
    )
    fn = _empirical_trial_fn(sample, EmpiricalMeanEstimator, uniform_product(n))
    devs = run_trials(functools.partial(fn, m=m), trials, np.random.SeedSequence(seed))
    freq = float(np.mean(devs >= threshold))
    passed = freq >= target - slack
    report = DeviationReport.from_deviations(
        "empirical-mean", f"permutation-graphs(n={n})", f"uniform-product({n}x{n})",
        seed, devs,
    )
    assertion = (
        f"freq(sup-dev >= {threshold}) = {freq:.4f} must be "
        f">= {target} - {slack} = {target - slack}"
    )
    return passed, assertion, slack, {"freq": freq, "m": m}, {}, report


def _run_perm_product_success(params, trials, seed, memo):
    n, eps, delta, constant = (
        params["n"], params["eps"], params["delta"], params["constant"],
    )
    slack = params["slack"]
    m = product_case_size(eps, delta, g=1, d=2, constant=constant)
    fn = _empirical_trial_fn(
        marginal_counts, EmpiricalProductEstimator.from_counts, uniform_product(n)
    )
    devs = run_trials(functools.partial(fn, m=m), trials, np.random.SeedSequence(seed))
    fail_freq = float(np.mean(devs > eps))
    passed = fail_freq <= delta + slack
    report = DeviationReport.from_deviations(
        "empirical-product", f"permutation-graphs(n={n})", f"uniform-product({n}x{n})",
        seed, devs,
    )
    assertion = (
        f"freq(sup-dev > {eps}) = {fail_freq:.4f} must be <= {delta} + {slack}"
    )
    metrics = {"fail_freq": fail_freq, "m": m, "constant": constant}
    return passed, assertion, slack, metrics, {}, report


def _run_deviation_scaling(params, trials, seed, memo):
    n = params["n"]
    m_list = list(params["m_list"])
    lo, hi, ratio_bound = params["slope_lo"], params["slope_hi"], params["ratio_bound"]
    fn = _empirical_trial_fn(
        marginal_counts, EmpiricalProductEstimator.from_counts, ramp_product(n)
    )
    per_m_seeds = np.random.SeedSequence(seed).spawn(len(m_list))
    rows = []
    means = []
    for m, sub in zip(m_list, per_m_seeds):
        devs = run_trials(functools.partial(fn, m=m), trials, sub)
        means.append(float(devs.mean()))
        q90 = float(np.quantile(devs, 0.9))
        rows.append({"m": m, "mean_dev": means[-1], "q90_dev": q90})
    slope = float(np.polyfit(np.log(m_list), np.log(means), 1)[0])
    ratio_ok = True
    ratio = None
    if 1024 in m_list and 4096 in m_list:
        ratio = means[m_list.index(4096)] / means[m_list.index(1024)]
        ratio_ok = ratio <= ratio_bound
    passed = (lo <= slope <= hi) and ratio_ok
    assertion = (
        f"log-log slope {slope:.3f} must lie in [{lo}, {hi}]"
        + (f"; mean ratio m=4096/m=1024 = {ratio:.3f} must be <= {ratio_bound}"
           if ratio is not None else "")
    )
    curves = {"scaling": {"columns": ["m", "mean_dev", "q90_dev"], "rows": rows}}
    metrics = {"slope": slope, "ratio_4096_1024": ratio, "means": means}
    return passed, assertion, 0.15, metrics, curves, None


def _run_modulus_mixture(params, trials, seed, memo):
    instances = params["instances"]
    k_max, size_max, tol = params["k_max"], params["size_max"], params["tol"]
    alphas = np.asarray(params["alpha_grid"], dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    min_slack = math.inf
    for _ in range(instances):
        k = int(rng.integers(1, k_max + 1))
        sizes = rng.integers(2, size_max + 1, size=2)
        domain = ProductDomain.of_sizes(*sizes)
        components = [
            ProductDistribution(
                domain, [rng.dirichlet(np.ones(n)) for n in sizes]
            )
            for _ in range(k)
        ]
        mixture = MixtureDistribution(rng.dirichlet(np.ones(k)), components)
        p_events = exhaustive_event_probabilities(mixture)
        p_box_events = exhaustive_event_probabilities(box_projection(mixture))
        for alpha in alphas:
            beta = mixture_modulus(k, 2, float(alpha))
            hit = p_events >= alpha
            if np.any(hit):
                slack = float(np.min(p_box_events[hit]) - beta)
                min_slack = min(min_slack, slack)
                violations += int(np.sum(p_box_events[hit] < beta - tol))
    # sharpness: the diagonal construction attains alpha^d/(k-1)^(d-1) exactly
    tight_gap = 0.0
    for k, d, alpha in [(2, 2, 0.5), (3, 2, 0.6), (3, 3, 0.25), (2, 3, 1.0)]:
        mixture, event = mixture_tightness_instance(k, d, alpha)
        p = event_probability(mixture, event)
        p_box = event_probability(box_projection(mixture), event)
        tight_gap = max(
            tight_gap,
            abs(p - alpha),
            abs(p_box - alpha**d / (k - 1) ** (d - 1)),
        )
    passed = violations == 0 and tight_gap <= tol
    assertion = (
        f"{violations} modulus violations over {instances} mixtures (tol {tol}); "
        f"tightness gap {tight_gap:.2e} must be <= {tol}"
    )
    metrics = {
        "violations": violations,
        "min_slack": min_slack,
        "tightness_gap": tight_gap,
    }
    return passed, assertion, 0.0, metrics, {}, None


def _run_modulus_tc(params, trials, seed, memo):
    instances, tol = params["instances"], params["tol"]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    min_slack = math.inf
    for _ in range(instances):
        domain = ProductDomain.of_sizes(3, 3)
        joint = JointTable(domain, rng.dirichlet(np.ones(9)))
        tc = total_correlation(joint)
        p_events = exhaustive_event_probabilities(joint)
        p_box_events = exhaustive_event_probabilities(box_projection(joint))
        positive = p_events > 0
        a = p_events[positive]
        bound = np.array([tc_modulus(tc, min(x, 1.0)) for x in a.tolist()])
        slack = p_box_events[positive] - bound
        min_slack = min(min_slack, float(slack.min()))
        violations += int(np.sum(slack < -tol))
    alpha = params["asym_alpha"]
    asym_gap = abs(tc_modulus(0.0, alpha) * math.e / alpha - 1.0)
    asym_ok = asym_gap <= params["asym_tol"]
    passed = violations == 0 and asym_ok
    assertion = (
        f"{violations} modulus violations over {instances} joints (tol {tol}); "
        f"|beta(a) e/a - 1| = {asym_gap:.2e} at a={alpha} must be <= "
        f"{params['asym_tol']}"
    )
    metrics = {"violations": violations, "min_slack": min_slack, "asym_gap": asym_gap}
    return passed, assertion, 0.0, metrics, {}, None


def _run_ssp_audit(params, trials, seed, memo):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    entries = []

    def audit(family, grid):
        nonlocal violations
        traces = count_traces(family, grid)
        g = max(linear_vc_dimension(family).dimension, 1)
        bound, _ = grid_ssp_bound_maxside(grid.sizes, g)
        if traces > bound:
            violations += 1

    for n in range(2, params["perm_n_max"] + 1):
        fam = PermutationGraphs(n).materialize()
        grid = fam.domain.full_grid()
        audit(fam, grid)
        entries.append((fam, grid))
    for g in (1, 2):
        fam = UnionsOfPermutations(4, g)
        audit(fam.materialize(), fam.domain.full_grid())
        entries.append((fam.materialize(), fam.domain.full_grid()))
    hd = enumerate_hd_permutations(3, 3)
    audit(hd, hd.domain.full_grid())
    entries.append((hd, hd.domain.full_grid()))

    for _ in range(params["random_families"]):
        d = int(rng.integers(2, 4))
        sizes = rng.integers(2, 5, size=d)
        domain = ProductDomain.of_sizes(*sizes)
        fam = random_explicit_family(domain, int(rng.integers(4, 17)), rng)
        audit(fam, domain.full_grid())
        pts = rng.integers(0, sizes, size=(5, d))
        audit(fam, build_grid(pts, domain))

    exact, bound = union_family_lower_check(4, 2, 2)
    lower_ok = exact >= max(bound, params["union_lower_min"])
    passed = violations == 0 and lower_ok
    assertion = (
        f"{violations} grid trace-count bound violations; "
        f"union family exact count {exact} must be >= {max(bound, params['union_lower_min'])}"
    )
    rows = dimension_report_rows(entries[: params["report_rows"]])
    curves = {
        "dimension_report": {
            "columns": ["family", "n", "d", "g", "vc", "traces", "ssp_bound",
                        "rate_bound"],
            "rows": rows,
        }
    }
    metrics = {"violations": violations, "union_exact": exact, "union_bound": bound}
    return passed, assertion, 0.0, metrics, curves, None


def _run_symdiff_vc(params, trials, seed, memo):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    for _ in range(params["vc_families"]):
        n = int(rng.integers(4, 11))
        domain = ProductDomain.of_sizes(n)
        fam = random_explicit_family(domain, int(rng.integers(2, 11)), rng)
        base = vc_dimension(fam).dimension
        diff = vc_dimension(symdiff_family(fam)).dimension
        if diff > 20 * base:
            violations += 1
    for _ in range(params["lvc_families"]):
        sizes = rng.integers(2, 4, size=2)
        domain = ProductDomain.of_sizes(*sizes)
        fam = random_explicit_family(domain, int(rng.integers(2, 9)), rng)
        base = linear_vc_dimension(fam).dimension
        diff = linear_vc_dimension(symdiff_family(fam)).dimension
        if diff > 20 * base:
            violations += 1
    passed = violations == 0
    assertion = f"{violations} symmetric-difference dimension bound violations"
    return passed, assertion, 0.0, {"violations": violations}, {}, None


def _run_fano_omega_d(params, trials, seed, memo):
    d, eps, tol = params["d"], params["eps"], params["tol"]
    nu = 4.0 * math.sqrt(eps / d)
    if nu >= 0.25:
        raise ValueError("d too small: the bias must stay below 1/4")
    min_dist = max(1, d // 4)
    code = gilbert_varshamov_code(d, min_dist)
    dists = code[:, None, :] != code[None, :, :]
    pair_dist = dists.sum(axis=2)
    off_diag = ~np.eye(len(code), dtype=bool)
    distance_ok = bool(np.all(pair_dist[off_diag] >= min_dist))

    family = biased_cube_family(d, nu, code=code)
    tables = np.array([f.table().probs for f in family])
    min_tv = math.inf
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            min_tv = min(min_tv, tv_distance(tables[i], tables[j]))
    tv_ok = min_tv >= 4 * eps

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fano_gap = 0.0
    for _ in range(params["fano_instances"]):
        m_hyp = int(rng.integers(2, 5))
        outcomes = int(rng.integers(3, 7))
        rows = np.array([rng.dirichlet(np.ones(outcomes)) for _ in range(m_hyp)])
        mean = rows.mean(axis=0)
        # exhaustive conditional entropy of the uniform index given the draw
        joint = rows / m_hyp
        posterior = joint / mean[None, :]
        h_cond = float(
            -np.sum(joint * np.where(posterior > 0, np.log(posterior), 0.0))
        )
        rhs = math.log(m_hyp) - np.mean(
            [kl_divergence(rows[v], mean) for v in range(m_hyp)]
        )
        fano_gap = max(fano_gap, abs(h_cond - rhs))
    fano_ok = fano_gap <= tol

    passed = distance_ok and tv_ok and fano_ok
    assertion = (
        f"code distance >= {min_dist}: {distance_ok}; "
        f"min pairwise TV {min_tv:.4f} must be >= {4 * eps}; "
        f"Fano identity gap {fano_gap:.2e} must be <= {tol}"
    )
    metrics = {
        "nu": nu,
        "code_size": int(len(code)),
        "code_rate": code_rate(code),
        "min_tv": min_tv,
        "fano_gap": fano_gap,
    }
    return passed, assertion, 0.0, metrics, {}, None


def _hitting_family(n: int, base_perms: int, rng: np.random.Generator):
    """A capped subfamily of single permutation graphs plus their complements."""
    domain = ProductDomain.of_sizes(n, n)
    members = [np.zeros(domain.n_points, dtype=bool),
               np.ones(domain.n_points, dtype=bool)]
    for _ in range(base_perms):
        bits = perm_graph_bits(rng.permutation(n), domain)
        members.append(bits)
        members.append(~bits)
    return ExplicitFamily(domain, np.array(members))


def _run_grid_hitting(params, trials, seed, memo):
    n, eps, delta, g, c0 = (
        params["n"], params["eps"], params["delta"], params["g"], params["c0"],
    )
    slack = params["slack"]
    master = np.random.SeedSequence(seed)
    family_seed, trial_seed = master.spawn(2)
    rng = np.random.default_rng(family_seed)
    family = _hitting_family(n, params["base_perms"], rng)
    dist = two_component_mixture(n)
    plan = SamplingPlan(
        epsilon=eps, delta=delta, lvc=g, width=2,
        modulus=Modulus.for_mixture(2, 2), c0=c0,
    )
    m0 = phase1_size(plan)
    fn = functools.partial(
        _trial_grid_hitting,
        family=family,
        dist=dist.table(),
        m0=m0,
        level=eps / 2,
    )
    counts = run_trials(fn, trials, trial_seed)
    fail_freq = float(np.mean(counts > 0))
    passed = fail_freq <= delta + slack
    assertion = (
        f"freq(any pair with P(F xor F') >= {eps / 2} missed by the grid) = "
        f"{fail_freq:.4f} must be <= {delta} + {slack}"
    )
    metrics = {
        "m0": m0,
        "fail_freq": fail_freq,
        "members": family.member_count(),
        "c0": c0,
    }
    return passed, assertion, slack, metrics, {}, None


def _run_pge_end_to_end(params, trials, seed, memo):
    n, eps, delta, c0 = params["n"], params["eps"], params["delta"], params["c0"]
    slack = params["slack"]
    dist = two_component_mixture(n)
    plan_sizes = SamplingPlan(
        epsilon=eps, delta=delta, lvc=1, width=2,
        modulus=Modulus.for_mixture(2, 2), c0=c0,
    )
    m0 = phase1_size(plan_sizes)
    m1 = phase2_size(eps, delta, math.factorial(n))
    plan = SamplingPlan(
        epsilon=eps, delta=delta, lvc=1, width=2,
        modulus=Modulus.for_mixture(2, 2), c0=c0, split=(m0, m1),
    )
    master = np.random.SeedSequence(seed)
    trial_seed, cross_seed = master.spawn(2)
    devs = run_trials(
        functools.partial(_trial_pge, n=n, plan=plan, dist=dist.table()),
        trials,
        trial_seed,
    )
    success_freq = float(np.mean(devs <= eps))
    main_ok = success_freq >= 1.0 - delta - slack

    # independent of c0: a calibration computes it once for all its constants
    cross_key = ("pge-cross-check", params["cross_n"], eps, delta, seed)
    if cross_key not in memo:
        memo[cross_key] = _pge_cross_check(params["cross_n"], eps, delta, cross_seed)
    cross_gap = memo[cross_key]
    cross_ok = cross_gap <= params["cross_tol"]

    passed = main_ok and cross_ok
    report = DeviationReport.from_deviations(
        "product-grid", f"permutation-graphs(n={n})", dist.describe(), seed, devs
    )
    assertion = (
        f"freq(sup-dev <= {eps}) = {success_freq:.4f} must be >= "
        f"{1.0 - delta - slack:.2f}; assignment/enumeration gap "
        f"{cross_gap:.2e} at n={params['cross_n']} must be <= {params['cross_tol']}"
    )
    metrics = {
        "m0": m0,
        "m1": m1,
        "success_freq": success_freq,
        "mean_dev": float(devs.mean()),
        "max_dev": float(devs.max()),
        "cross_gap": cross_gap,
        "c0": c0,
    }
    return passed, assertion, slack, metrics, {}, report


def _pge_cross_check(n: int, eps: float, delta: float, seed_seq) -> float:
    """Assignment vs enumeration, and structured vs explicit build, at small n.

    Point-based on purpose: both builds must agree on one point sample.
    """
    dist = two_component_mixture(n)
    family = PermutationGraphs(n)
    explicit_family = family.materialize()
    members = explicit_family.members_matrix()
    m1 = phase2_size(eps, delta, math.factorial(n))
    plan = SamplingPlan(
        epsilon=eps, delta=delta, lvc=1, width=2,
        modulus=Modulus.identity(), split=(60 * n, m1),
    )
    worst = 0.0
    checked = 0
    for child in seed_seq.spawn(8):
        s = sample(dist, 60 * n + m1, child)
        est = build_product_grid_estimator(s, family, plan)
        if not est.is_structured:
            continue
        checked += 1
        dev_assign = sup_deviation(est, family, dist, method="assignment")
        dev_enum = sup_deviation(est, family, dist, method="enumerate")
        worst = max(worst, abs(dev_assign - dev_enum))
        explicit = build_product_grid_estimator(s, explicit_family, plan)
        gaps = np.abs(est.estimate_many(members) - explicit.estimate_many(members))
        worst = max(worst, float(gaps.max()))
    if checked == 0:
        raise RuntimeError("cross-check never saw a full grid; increase m0")
    return worst


# -- catalog -------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    claim: str
    check_id: str
    defaults: dict
    default_trials: int
    runner: object


SCENARIOS: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in [
        CatalogEntry(
            "perm-empirical-failure",
            "with m <= sqrt(n)/2 uniform samples on [n]^2, the empirical mean's "
            "sup-deviation over permutation graphs reaches 3/4 with probability "
            ">= 3/4",
            "A1",
            {"n": 100, "m": 5, "dev_threshold": 0.75, "target_freq": 0.75,
             "slack": 0.05},
            2000,
            _run_perm_empirical_failure,
        ),
        CatalogEntry(
            "perm-product-success",
            "the empirical product of marginals is uniformly eps-accurate over "
            "permutation graphs with m = C (1 + ln(1/delta))/eps^2 samples under "
            "a product distribution",
            "A2",
            {"n": 100, "eps": 0.1, "delta": 0.1, "constant": 1.0, "slack": 0.05},
            200,
            _run_perm_product_success,
        ),
        CatalogEntry(
            "deviation-scaling",
            "the empirical product estimator's mean sup-deviation over "
            "permutation graphs decays like m^(-1/2) under a skewed product "
            "distribution",
            "A2",
            {"n": 100, "m_list": [256, 512, 1024, 2048, 4096, 8192, 16384],
             "slope_lo": -0.65, "slope_hi": -0.35, "ratio_bound": 0.65},
            200,
            _run_deviation_scaling,
        ),
        CatalogEntry(
            "modulus-mixture",
            "for k-mixtures of products, P(E) >= a implies "
            "P_box(E) >= a^d/(k-1+a)^(d-1), and the diagonal construction "
            "attains a^d/(k-1)^(d-1)",
            "A5",
            {"instances": 50, "k_max": 3, "size_max": 4, "tol": 1e-12,
             "alpha_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
            1,
            _run_modulus_mixture,
        ),
        CatalogEntry(
            "modulus-tc",
            "total correlation <= C implies P_box(E) >= exp(-(H(a)+C)/a) at "
            "a = P(E), and at C=0 the modulus behaves like a/e for small a",
            "A6",
            {"instances": 50, "tol": 1e-10, "asym_alpha": 1e-4, "asym_tol": 0.01},
            1,
            _run_modulus_tc,
        ),
        CatalogEntry(
            "ssp-audit",
            "the number of distinct traces on a grid is at most "
            "binomle(n_i, g)^(prod of other sides), with g the linear VC "
            "dimension; union families nearly attain it",
            "A4",
            {"perm_n_max": 5, "random_families": 100, "union_lower_min": 2.25,
             "report_rows": 10},
            1,
            _run_ssp_audit,
        ),
        CatalogEntry(
            "symdiff-vc",
            "the VC dimension of pairwise symmetric differences is at most 20 "
            "times the base VC dimension, and likewise for the linear VC "
            "dimension on product domains",
            "A3",
            {"vc_families": 100, "lvc_families": 100},
            1,
            _run_symdiff_vc,
        ),
        CatalogEntry(
            "fano-omega-d",
            "biased product Bernoullis over a distance-separated sign code are "
            "pairwise 4-eps separated in total variation, so uniform estimation "
            "over the cube needs Omega(d/eps) samples",
            "A9",
            {"d": 8, "eps": 0.01, "tol": 1e-10, "fano_instances": 20},
            1,
            _run_fano_omega_d,
        ),
        CatalogEntry(
            "grid-hitting",
            "a phase-1 grid of planner size intersects every symmetric "
            "difference of probability >= eps/2, except with frequency <= delta",
            "A10",
            {"n": 20, "eps": 0.3, "delta": 0.2, "g": 3, "c0": 0.25,
             "base_perms": 40, "slack": 0.05},
            500,
            _run_grid_hitting,
        ),
        CatalogEntry(
            "pge-end-to-end",
            "the two-phase product-grid estimator achieves sup-deviation <= eps "
            "with probability >= 1 - delta over permutation graphs under a "
            "2-component mixture of products",
            "A11",
            {"n": 30, "eps": 0.2, "delta": 0.1, "c0": 0.25, "slack": 0.05,
             "cross_n": 6, "cross_tol": 1e-12},
            200,
            _run_pge_end_to_end,
        ),
    ]
}

#: Map scenario -> name of its calibratable constant.
CALIBRATABLE = {
    "perm-product-success": "constant",
    "grid-hitting": "c0",
    "pge-end-to-end": "c0",
}


def run_scenario(config: ExperimentConfig, memo: dict | None = None) -> ScenarioResult:
    """Execute one catalog scenario; deterministic given the config seed.

    Runs sharing a ``memo`` dict reuse work keyed by all of its inputs.
    """
    entry = SCENARIOS.get(config.scenario)
    if entry is None:
        raise ValueError(f"unknown scenario {config.scenario!r}")
    unknown = set(config.params) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {entry.name}: {sorted(unknown)}")
    params = {**entry.defaults, **config.params}
    trials = config.trials if config.trials is not None else entry.default_trials
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if entry.default_trials == 1 and trials != 1:
        raise ValueError(f"{entry.name} is single-pass: trials must be 1, got {trials}")
    start = time.perf_counter()
    passed, assertion, slack, metrics, curves, report = entry.runner(
        params, trials, config.seed, {} if memo is None else memo
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    if report is not None:
        report.wall_ms = wall_ms
    return ScenarioResult(
        scenario=entry.name,
        claim=entry.claim,
        check_id=entry.check_id,
        params=_jsonable(params),
        trials=trials,
        seed=config.seed,
        passed=bool(passed),
        assertion=assertion,
        slack=float(slack),
        metrics=_jsonable(metrics),
        curves=curves,
        report=report,
        wall_ms=wall_ms,
    )


def calibrate_constants(
    scenario: str,
    target_epsilon: float | None = None,
    target_delta: float | None = None,
    grid=(0.25, 0.5, 1.0, 2.0, 4.0),
    trials: int | None = None,
    seed: int = 0,
    params: dict | None = None,
) -> dict:
    """Smallest grid constant for which the scenario passes at the target.

    Every grid value is run (monotonicity is verified, not assumed); when none
    passes the result is flagged unbounded at the grid maximum.
    """
    if scenario not in CALIBRATABLE:
        raise ValueError(f"scenario {scenario!r} does not support calibration")
    knob = CALIBRATABLE[scenario]
    base = dict(params or {})
    if target_epsilon is not None:
        base["eps"] = target_epsilon
    if target_delta is not None:
        base["delta"] = target_delta
    passes = []
    memo: dict = {}
    for value in grid:
        config = ExperimentConfig(
            scenario=scenario, trials=trials, seed=seed,
            params={**base, knob: value},
        )
        passes.append(bool(run_scenario(config, memo).passed))
    smallest = None
    for value, ok in zip(grid, passes):
        if ok:
            smallest = value
            break
    return {
        "scenario": scenario,
        "constant": knob,
        "grid": list(grid),
        "passes": passes,
        "smallest_passing": smallest,
        "unbounded": smallest is None,
        "grid_maximum": max(grid),
        # verified, not assumed: once a constant passes, larger ones should too
        "monotone": all(
            not passes[i] or passes[i + 1] for i in range(len(passes) - 1)
        ),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def emit_report(result: ScenarioResult, path) -> None:
    """Write the JSON result and one CSV per curve next to it.

    Re-running an identical config produces byte-identical files except for
    the wall-time fields.
    """
    import csv
    import json
    from pathlib import Path

    path = Path(path)
    data = _jsonable(result.to_dict())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    for name, curve in result.curves.items():
        csv_path = path.with_suffix(f".{name}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=curve["columns"])
            writer.writeheader()
            for row in curve["rows"]:
                writer.writerow(row)
