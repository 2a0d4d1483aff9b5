"""Seeded, configuration-driven scenarios with machine-readable reports.

Every scenario validates one mathematical claim by the checks its catalog
entry declares (each a metric against a bound computed from the params, Monte
Carlo slacks included), runs deterministically given its master seed
(independently of the worker count), and emits a JSON result plus CSV curves.
Trials derive their seeds from the master seed by ``SeedSequence.spawn``, so
parallel and serial execution produce byte-identical numbers.

The worker count is read from the ``GRIDEST_WORKERS`` environment variable;
it affects speed only, never results.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

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
    MAX_CELLS,
    CapExceededError,
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
    quantiles,
    sup_deviation,
)
from .families import (
    ExplicitFamily,
    PermutationGraphs,
    SetFamily,
    UnionsOfPermutations,
    check_member_matrix,
    perm_graph_bits,
    symdiff_family,
)
from .info import kl_divergence

WORKERS_ENV = "GRIDEST_WORKERS"


def worker_count(trials: int) -> int:
    """``GRIDEST_WORKERS`` (an integer >= 1), capped at the cpu and trial counts."""
    raw = os.environ.get(WORKERS_ENV, "1")
    message = f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if value < 1:
        raise ValueError(message)
    return max(1, min(value, os.cpu_count() or 1, trials))


def run_trials(trial_fn, trials: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """Run seeded trials, in order, optionally across processes."""
    children = seed_seq.spawn(trials)
    workers = worker_count(trials)
    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
    """One run's report.  ``checks`` holds one row per check of its catalog
    entry (metric, op, value, bound, signed margin and pass); ``passed`` and
    ``assertion`` are derived from them, and each threshold, tolerance and
    slack is listed in ``params``."""

    scenario: str
    claim: str
    check_id: str
    params: dict
    trials: int
    seed: int
    passed: bool
    assertion: str
    checks: list
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


def _mixture_plan(n: int, eps: float, delta: float, lvc: int, c0: float = 1.0):
    """``two_component_mixture(n)`` and its sampling plan, whose modulus of
    box-continuity is that of k-mixtures of products on d axes.  Tabulated
    before any family is built: the cell cap comes before any member row, and
    trials and worker processes reuse the kept table."""
    dist = two_component_mixture(n)
    dist.table()
    d = dist.domain.width
    return dist, SamplingPlan(eps, delta, lvc, d, Modulus(dist.k, d), c0)


# -- trial functions (module level for pickling) ------------------------------------


# Trials draw only what their estimator reads, and never points: cell counts
# for the empirical mean and the product grid's phase 2, marginal counts for
# the empirical product and the phase-1 grid.  At A1's m, the cell counts are
# those of the points ``sample`` draws from the same seed.

#: ``PCG64.jumped()``'s stride: a trial's phase 2 draws from its seed's PCG64
#: advanced by it, the jumped state at a fifth of ``jumped()``'s cost.  Not a
#: power of two, since PCG64 states 2^k steps apart share their low bits.
PHASE2_STRIDE = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _trial_empirical(
    seed_seq, draw, build, dist: Distribution, m: int, family: PermutationGraphs,
) -> float:
    est = build(draw(dist, m, seed_seq), dist.domain)
    return sup_deviation(est, family, dist, method="assignment")


def _trial_grid_hitting(
    seed_seq, family: SetFamily, dist: Distribution, m0: int, level: float
) -> float:
    grid = grid_from_counts(marginal_counts(dist, m0, seed_seq), dist.domain)
    return float(len(check_grid_hitting(family, grid, dist, level)))


def _trial_pge(
    seed_seq, family: PermutationGraphs, plan: SamplingPlan, dist: Distribution,
    full_devs: dict,
) -> float:
    """The trial's sup-deviation, or 1.0 (a failure) where the phase-1 grid
    misses part of the domain.

    Phase 1 draws from ``default_rng(seed_seq)``, phase 2 from the seed's
    PCG64 advanced by ``PHASE2_STRIDE``, so phase 2 does not depend on m0.
    On a full grid the deviation depends on phase 2 alone; ``full_devs``
    keeps it by the seed's ``spawn_key`` for runs that differ only in m0.
    """
    m0, m1 = plan.split
    grid = grid_from_counts(marginal_counts(dist, m0, seed_seq), dist.domain)
    if not grid.is_full:
        return 1.0
    key = seed_seq.spawn_key
    if key not in full_devs:
        rng = np.random.Generator(np.random.PCG64(seed_seq).advance(PHASE2_STRIDE))
        est = ProductGridEstimator.from_counts(
            grid, sample_counts(dist, m1, rng), family, plan
        )
        full_devs[key] = sup_deviation(est, family, dist, method="assignment")
    return full_devs[key]


# -- scenario runners ----------------------------------------------------------------


def _run_perm_empirical_failure(params, trials, seed, memo):
    n, m = params["n"], params["m"]
    family, dist = PermutationGraphs(n), uniform_product(n)
    fn = functools.partial(
        _trial_empirical, draw=sample_counts, build=EmpiricalMeanEstimator.from_counts,
        dist=dist, m=m, family=family,
    )
    devs = run_trials(fn, trials, np.random.SeedSequence(seed))
    freq = float(np.mean(devs >= params["dev_threshold"]))
    report = DeviationReport.from_deviations(
        "empirical-mean", family.describe(), dist.describe(), seed, devs,
    )
    return {"freq": freq, "m": m}, {}, report


def _run_perm_product_success(params, trials, seed, memo):
    n, eps, delta, constant = (
        params["n"], params["eps"], params["delta"], params["constant"],
    )
    family, dist = PermutationGraphs(n), uniform_product(n)
    m = product_case_size(eps, delta, g=1, d=dist.domain.width, constant=constant)
    fn = functools.partial(
        _trial_empirical, draw=marginal_counts,
        build=EmpiricalProductEstimator.from_counts, dist=dist, m=m, family=family,
    )
    devs = run_trials(fn, trials, np.random.SeedSequence(seed))
    fail_freq = float(np.mean(devs > eps))
    report = DeviationReport.from_deviations(
        "empirical-product", family.describe(), dist.describe(), seed, devs,
    )
    return {"fail_freq": fail_freq, "m": m, "constant": constant}, {}, report


def _run_deviation_scaling(params, trials, seed, memo):
    n = params["n"]
    m_list = list(params["m_list"])
    if len(set(m_list)) < 2:
        raise ValueError("m_list needs at least two distinct m to fit a slope")
    fn = functools.partial(
        _trial_empirical, draw=marginal_counts,
        build=EmpiricalProductEstimator.from_counts, dist=ramp_product(n),
        family=PermutationGraphs(n),
    )
    per_m_seeds = np.random.SeedSequence(seed).spawn(len(m_list))
    rows = []
    means = []
    for m, sub in zip(m_list, per_m_seeds):
        devs = run_trials(functools.partial(fn, m=m), trials, sub)
        means.append(float(devs.mean()))
        [q90] = quantiles(devs, [0.9])
        rows.append({"m": m, "mean_dev": means[-1], "q90_dev": q90})
    if min(means) == 0.0:
        # a point mass (n = 1) is estimated exactly: no log-log slope exists
        raise ValueError(f"mean sup-deviation is 0 at n={n}: no slope to fit")
    slope = float(np.polyfit(np.log(m_list), np.log(means), 1)[0])
    ratio = None  # not measured unless both sizes ran
    if 1024 in m_list and 4096 in m_list:
        ratio = means[m_list.index(4096)] / means[m_list.index(1024)]
    curves = {"scaling": {"columns": ["m", "mean_dev", "q90_dev"], "rows": rows}}
    metrics = {"slope": slope, "ratio_4096_1024": ratio, "means": means}
    return metrics, curves, None


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
    metrics = {
        "violations": violations,
        "min_slack": min_slack,
        "tightness_gap": tight_gap,
    }
    return metrics, {}, None


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
    metrics = {"violations": violations, "min_slack": min_slack, "asym_gap": asym_gap}
    return metrics, {}, None


def _run_ssp_audit(params, trials, seed, memo):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    violations = 0
    entries = []

    def audit(family, grid, lvc):
        nonlocal violations
        traces = count_traces(family, grid)
        bound, _ = grid_ssp_bound_maxside(grid.sizes, lvc)
        if traces > bound:
            violations += 1
        return traces

    n_max = params["perm_n_max"]
    for fam in (
        *(PermutationGraphs(n).materialize() for n in range(2, n_max + 1)),
        *(UnionsOfPermutations(4, g).materialize() for g in (1, 2)),
        enumerate_hd_permutations(3, 3),
    ):
        grid = fam.domain.full_grid()
        lvc = linear_vc_dimension(fam).dimension
        entries.append((fam, grid, lvc, audit(fam, grid, lvc)))

    for _ in range(params["random_families"]):
        d = int(rng.integers(2, 4))
        sizes = rng.integers(2, 5, size=d)
        domain = ProductDomain.of_sizes(*sizes)
        fam = random_explicit_family(domain, int(rng.integers(4, 17)), rng)
        lvc = linear_vc_dimension(fam).dimension
        audit(fam, domain.full_grid(), lvc)
        pts = rng.integers(0, sizes, size=(5, d))
        audit(fam, build_grid(pts, domain), lvc)

    exact, bound = union_family_lower_check(4, 2, 2)
    rows = dimension_report_rows(entries[: params["report_rows"]])
    curves = {
        "dimension_report": {
            "columns": ["family", "n", "d", "g", "vc", "traces", "ssp_bound",
                        "rate_bound"],
            "rows": rows,
        }
    }
    metrics = {"violations": violations, "union_exact": exact, "union_bound": bound}
    return metrics, curves, None


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
    return {"violations": violations}, {}, None


def _check_fano_tables(d: int, words: int, qualifier: str = "") -> None:
    """Raise ``CapExceededError`` if the ``words`` probability tables over
    ``{0,1}^d`` that ``fano-omega-d`` stacks hold over ``MAX_CELLS`` cells."""
    cells = words * 2**d
    if cells > MAX_CELLS:
        raise CapExceededError(
            f"fano-omega-d at d = {d} stacks {qualifier}{words} tables of 2^{d} "
            f"cells: {cells} cells ({cells * 8 / 2**20:.1f} MiB), cap {MAX_CELLS}"
        )


def _fano_min_distance(d: int) -> int:
    """The least Hamming distance between words of the ``fano-omega-d`` code."""
    return max(1, d // 4)


def _run_fano_omega_d(params, trials, seed, memo):
    d, eps = params["d"], params["eps"]
    nu = 4.0 * math.sqrt(eps / d) if d > 0 else math.inf
    if nu >= 0.25:
        raise ValueError("d too small: the bias must stay below 1/4")
    min_dist = _fano_min_distance(d)
    # a greedy code is maximal: the balls of radius min_dist - 1 around its
    # words cover all 2^d sign vectors, so it keeps at least 2^d / ball words
    ball = sum(math.comb(d, i) for i in range(min_dist))
    _check_fano_tables(d, -(-2**d // ball), "at least ")
    code = gilbert_varshamov_code(d, min_dist)
    _check_fano_tables(d, len(code))
    pair_dist = (code[:, None, :] != code[None, :, :]).sum(axis=2)
    code_distance = int(pair_dist[~np.eye(len(code), dtype=bool)].min())

    family = biased_cube_family(d, nu, code=code)
    tables = np.array([f.table().probs for f in family])  # each validated once
    min_tv = float(min((0.5 * np.abs(tables[i] - tables[i + 1:]).sum(axis=1)).min()
                       for i in range(len(tables) - 1)))

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
    metrics = {
        "nu": nu,
        "code_size": int(len(code)),
        "code_rate": code_rate(code),
        "code_distance": code_distance,
        "min_tv": min_tv,
        "fano_gap": fano_gap,
    }
    return metrics, {}, None


def _hitting_family(n: int, base_perms: int, rng: np.random.Generator):
    """A capped subfamily of single permutation graphs plus their complements."""
    domain = ProductDomain.of_sizes(n, n)
    check_member_matrix(2 + 2 * base_perms, domain.n_points)
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
    family_seed, trial_seed = np.random.SeedSequence(seed).spawn(2)
    dist, plan = _mixture_plan(n, eps, delta, lvc=g, c0=c0)
    rng = np.random.default_rng(family_seed)
    family = _hitting_family(n, params["base_perms"], rng)
    m0 = phase1_size(plan)
    fn = functools.partial(
        _trial_grid_hitting, family=family, dist=dist, m0=m0, level=eps / 2
    )
    counts = run_trials(fn, trials, trial_seed)
    metrics = {
        "m0": m0,
        "fail_freq": float(np.mean(counts > 0)),
        "members": family.member_count(),
        "c0": c0,
    }
    return metrics, {}, None


def _run_pge_end_to_end(params, trials, seed, memo):
    n, eps, delta, c0 = params["n"], params["eps"], params["delta"], params["c0"]
    dist, plan = _mixture_plan(n, eps, delta, lvc=1, c0=c0)
    family = PermutationGraphs(n)
    m0 = phase1_size(plan)
    m1 = phase2_size(eps, delta, family.member_count())
    plan = replace(plan, split=(m0, m1))
    trial_seed, cross_seed = np.random.SeedSequence(seed).spawn(2)
    # independent of c0: a calibration computes each once for all its constants
    full_devs = memo.setdefault(("pge-full-grid", n, eps, delta, m1, seed), {})
    devs = run_trials(
        functools.partial(_trial_pge, family=family, plan=plan, dist=dist,
                          full_devs=full_devs),
        trials,
        trial_seed,
    )
    cross_key = ("pge-cross-check", params["cross_n"], eps, delta, seed)
    if cross_key not in memo:
        memo[cross_key] = _pge_cross_check(params["cross_n"], eps, delta, cross_seed)
    report = DeviationReport.from_deviations(
        "product-grid", family.describe(), dist.describe(), seed, devs
    )
    metrics = {
        "m0": m0,
        "m1": m1,
        "success_freq": float(np.mean(devs <= eps)),
        "mean_dev": float(devs.mean()),
        "max_dev": float(devs.max()),
        "cross_gap": memo[cross_key],
        "c0": c0,
    }
    return metrics, {}, report


def _pge_cross_check(n: int, eps: float, delta: float, seed_seq) -> float:
    """Assignment vs enumeration, and structured vs explicit build, at small n.

    Point-based on purpose: both builds must agree on one point sample.
    """
    dist, plan = _mixture_plan(n, eps, delta, lvc=1)
    family = PermutationGraphs(n)
    explicit_family = family.materialize()
    members = explicit_family.members_matrix()
    m1 = phase2_size(eps, delta, family.member_count())
    plan = replace(plan, split=(60 * n, m1))
    worst = 0.0
    checked = 0
    for child in seed_seq.spawn(8):
        s = sample(dist, 60 * n + m1, child)
        est = build_product_grid_estimator(s, family, plan)
        if not est.grid.is_full:
            continue
        checked += 1
        dev_assign = sup_deviation(est, family, dist, method="assignment")
        dev_enum = sup_deviation(est, explicit_family, dist, method="enumerate")
        worst = max(worst, abs(dev_assign - dev_enum))
        explicit = build_product_grid_estimator(s, explicit_family, plan)
        gaps = np.abs(est.estimate_many(members) - explicit.estimate_many(members))
        worst = max(worst, float(gaps.max()))
    if checked == 0:
        raise RuntimeError("cross-check never saw a full grid; increase m0")
    return worst


# -- catalog -------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One comparison of a verdict: the runner's metric ``metric`` must be
    ``op`` (``"<="`` or ``">="``) ``bound(params, metrics)``."""

    metric: str
    op: str
    bound: Callable[[dict, dict], float]

    def judge(self, value, params: dict, metrics: dict) -> dict:
        """The check's report row.  The signed margin is positive when the
        check holds; a ``None`` value is not measured, so it neither holds nor
        fails (``margin`` and ``pass`` are ``None`` too)."""
        bound = self.bound(params, metrics)
        row = {"metric": self.metric, "op": self.op, "value": value,
               "bound": bound, "margin": None, "pass": None}
        if value is not None:
            at_least = self.op == ">="
            row["margin"] = value - bound if at_least else bound - value
            row["pass"] = bool(value >= bound if at_least else value <= bound)
        return row


_NO_VIOLATIONS = Check("violations", "<=", lambda p, m: 0)
_FAIL_FREQ = Check("fail_freq", "<=", lambda p, m: p["delta"] + p["slack"])


@dataclass(frozen=True)
class CatalogEntry:
    """One scenario: ``defaults`` holds the params a config may set, and
    ``fixed`` the thresholds, tolerances and slacks its claim is judged by,
    which no config sets; the runner and the report see both.  The runner
    returns ``(metrics, curves, report)``, and the verdict is its ``checks``,
    each judged on those metrics by ``run_scenario``.  ``knob`` names the
    default ``calibrate_constants`` searches, which its params may not set."""

    name: str
    claim: str
    check_id: str
    defaults: dict
    default_trials: int
    runner: object
    checks: tuple[Check, ...]
    fixed: dict = field(default_factory=dict)
    knob: str | None = None


SCENARIOS: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in [
        CatalogEntry(
            "perm-empirical-failure",
            "with m <= sqrt(n)/2 uniform samples on [n]^2, the empirical mean's "
            "sup-deviation over permutation graphs reaches 3/4 with probability "
            ">= 3/4",
            "A1",
            {"n": 100, "m": 5},
            2000,
            _run_perm_empirical_failure,
            (Check("freq", ">=", lambda p, m: p["target_freq"] - p["slack"]),),
            {"dev_threshold": 0.75, "target_freq": 0.75, "slack": 0.05},
        ),
        CatalogEntry(
            "perm-product-success",
            "the empirical product of marginals is uniformly eps-accurate over "
            "permutation graphs with m = C (1 + ln(1/delta))/eps^2 samples under "
            "a product distribution",
            "A2",
            {"n": 100, "eps": 0.1, "delta": 0.1, "constant": 1.0},
            200,
            _run_perm_product_success,
            (_FAIL_FREQ,),
            {"slack": 0.05}, knob="constant",
        ),
        CatalogEntry(
            "deviation-scaling",
            "the empirical product estimator's mean sup-deviation over "
            "permutation graphs decays like m^(-1/2) under a skewed product "
            "distribution",
            "A2",
            {"n": 100, "m_list": [256, 512, 1024, 2048, 4096, 8192, 16384]},
            200,
            _run_deviation_scaling,
            (Check("slope", ">=", lambda p, m: p["slope_lo"]),
             Check("slope", "<=", lambda p, m: p["slope_hi"]),
             Check("ratio_4096_1024", "<=", lambda p, m: p["ratio_bound"])),
            {"slope_lo": -0.65, "slope_hi": -0.35, "ratio_bound": 0.65},
        ),
        CatalogEntry(
            "modulus-mixture",
            "for k-mixtures of products, P(E) >= a implies "
            "P_box(E) >= a^d/(k-1+a)^(d-1), and the diagonal construction "
            "attains a^d/(k-1)^(d-1)",
            "A5",
            {"instances": 50, "k_max": 3, "size_max": 4},
            1,
            _run_modulus_mixture,
            (_NO_VIOLATIONS, Check("tightness_gap", "<=", lambda p, m: p["tol"])),
            {"tol": 1e-12,
             "alpha_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
        ),
        CatalogEntry(
            "modulus-tc",
            "total correlation <= C implies P_box(E) >= exp(-(H(a)+C)/a) at "
            "a = P(E), and at C=0 the modulus behaves like a/e for small a",
            "A6",
            {"instances": 50},
            1,
            _run_modulus_tc,
            (_NO_VIOLATIONS, Check("asym_gap", "<=", lambda p, m: p["asym_tol"])),
            {"tol": 1e-10, "asym_alpha": 1e-4, "asym_tol": 0.01},
        ),
        CatalogEntry(
            "ssp-audit",
            "the number of distinct traces on a grid is at most "
            "binomle(n_i, g)^(prod of other sides), with g the linear VC "
            "dimension; union families nearly attain it",
            "A4",
            {"random_families": 100, "report_rows": 10},
            1,
            _run_ssp_audit,
            (_NO_VIOLATIONS,
             Check("union_exact", ">=",
                   lambda p, m: max(m["union_bound"], p["union_lower_min"]))),
            {"perm_n_max": 5, "union_lower_min": 2.25},
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
            (_NO_VIOLATIONS,),
        ),
        CatalogEntry(
            "fano-omega-d",
            "biased product Bernoullis over a distance-separated sign code are "
            "pairwise 4-eps separated in total variation, so uniform estimation "
            "over the cube needs Omega(d/eps) samples",
            "A9",
            {"d": 8, "eps": 0.01, "fano_instances": 20},
            1,
            _run_fano_omega_d,
            (Check("code_distance", ">=", lambda p, m: _fano_min_distance(p["d"])),
             Check("min_tv", ">=", lambda p, m: 4 * p["eps"]),
             Check("fano_gap", "<=", lambda p, m: p["tol"])),
            {"tol": 1e-10},
        ),
        CatalogEntry(
            "grid-hitting",
            "a phase-1 grid of planner size intersects every symmetric "
            "difference of probability >= eps/2, except with frequency <= delta",
            "A10",
            {"n": 20, "eps": 0.3, "delta": 0.2, "g": 3, "c0": 0.25,
             "base_perms": 40},
            500,
            _run_grid_hitting,
            (_FAIL_FREQ,),
            {"slack": 0.05}, knob="c0",
        ),
        CatalogEntry(
            "pge-end-to-end",
            "the two-phase product-grid estimator achieves sup-deviation <= eps "
            "with probability >= 1 - delta over permutation graphs under a "
            "2-component mixture of products",
            "A11",
            {"n": 30, "eps": 0.2, "delta": 0.1, "c0": 0.25, "cross_n": 6},
            200,
            _run_pge_end_to_end,
            (Check("success_freq", ">=",
                   lambda p, m: 1.0 - p["delta"] - p["slack"]),
             Check("cross_gap", "<=", lambda p, m: p["cross_tol"])),
            {"slack": 0.05, "cross_tol": 1e-12}, knob="c0",
        ),
    ]
}

#: Map scenario -> name of its calibratable constant.
CALIBRATABLE = {e.name: e.knob for e in SCENARIOS.values() if e.knob}


def _is_a(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


_CONFIG_FIELDS = (
    ("scenario", lambda v: isinstance(v, str), "a string"),
    ("trials", lambda v: v is None or (_is_a(v, numbers.Integral) and v >= 1),
     "null or an integer >= 1"),
    ("seed", lambda v: _is_a(v, numbers.Integral) and v >= 0, "an integer >= 0"),
    ("params", lambda v: isinstance(v, dict), "an object"),
    ("out", lambda v: v is None or isinstance(v, str), "null or a string"),
)


#: Params that are the side n of an [n]^2 domain.  At n = 1 the domain is one
#: point, every estimate is exact, and a claim would pass over nothing.
_DOMAIN_SIDES = ("n", "cross_n")

#: Params that count the instances or families a claim is checked over.  At 0
#: the claim would pass over nothing.
_POPULATION_COUNTS = ("base_perms", "instances", "random_families",
                      "fano_instances", "vc_families", "lvc_families")

#: The smallest value each of those params takes; also of the sample sizes
#: (each item of ``m_list``), the linear VC dimension ``g``, the most mixture
#: components ``k_max``, and ``size_max``, the top of the axis sizes drawn.
#: Every other param is at least 0.
_LEAST = {**dict.fromkeys(_DOMAIN_SIDES, 2), "size_max": 2,
          **dict.fromkeys(_POPULATION_COUNTS + ("m", "m_list", "g", "k_max"), 1)}


def _follows(value, default, least) -> bool:
    """Whether a param has its default's type and is at least ``least``
    (nan passes); each item, for a list."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_follows(v, default[0], least) for v in value))
    kind = numbers.Integral if isinstance(default, int) else numbers.Real
    return _is_a(value, kind) and not value < least


def _wanted(default, least) -> str:
    if isinstance(default, list):
        return f"a non-empty list, each item {_wanted(default[0], least)}"
    kind = "an integer" if isinstance(default, int) else "a real number"
    return f"{kind} >= {least}"


def check_config(config: ExperimentConfig) -> CatalogEntry:
    """The entry of a valid config: checks its fields, names, params (against
    their catalog defaults and ``_LEAST``; a fixed value is refused) and the
    single-pass rule; ``ValueError`` if bad."""
    for name, ok, want in _CONFIG_FIELDS:
        value = getattr(config, name)
        if not ok(value):
            raise ValueError(f"config field {name!r} must be {want}, got {value!r}")
    entry = SCENARIOS.get(config.scenario)
    if entry is None:
        raise ValueError(f"unknown scenario {config.scenario!r}")
    for name in config.params:
        if name in entry.fixed:
            raise ValueError(
                f"{entry.name} param {name!r} = {entry.fixed[name]!r} is fixed by "
                f"the claim and cannot be set"
            )
    unknown = set(config.params) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {entry.name}: {sorted(unknown)}")
    for name, value in config.params.items():
        default, least = entry.defaults[name], _LEAST.get(name, 0)
        if not _follows(value, default, least):
            raise ValueError(f"{entry.name} param {name!r} must be "
                             f"{_wanted(default, least)}, got {value!r}")
    if entry.default_trials == 1 and config.trials not in (None, 1):
        raise ValueError(
            f"{entry.name} is single-pass: trials must be 1, got {config.trials}"
        )
    return entry


def run_scenario(config: ExperimentConfig, memo: dict | None = None) -> ScenarioResult:
    """Execute one catalog scenario; deterministic given the config seed.

    Runs sharing a ``memo`` dict reuse work keyed by all of its inputs.
    ``pge-end-to-end`` keeps there its cross-check and each trial's full-grid
    deviation, whose phase 2 draws from the trial seed's jumped PCG64 stream,
    apart from the phase-1 draw that ``c0`` sizes; so a reused number is the
    one a standalone run computes.
    """
    entry = check_config(config)
    params = {**entry.defaults, **entry.fixed, **config.params}
    trials = config.trials if config.trials is not None else entry.default_trials
    start = time.perf_counter()
    metrics, curves, report = entry.runner(
        params, trials, config.seed, {} if memo is None else memo
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    checks = []
    for check in entry.checks:
        if check.metric not in metrics:
            raise LookupError(f"{entry.name} returned no metric {check.metric!r} "
                              f"for its check")
        checks.append(check.judge(metrics[check.metric], params, metrics))
    return ScenarioResult(
        scenario=entry.name,
        claim=entry.claim,
        check_id=entry.check_id,
        params=_jsonable(params),
        trials=trials,
        seed=config.seed,
        passed=all(c["pass"] for c in checks if c["value"] is not None),
        assertion="; ".join(
            f"{c['metric']} = {'not measured' if c['value'] is None else c['value']}"
            f" must be {c['op']} {c['bound']}" for c in checks
        ),
        checks=_jsonable(checks),
        metrics=_jsonable(metrics),
        curves=curves,
        report=report,
        wall_ms=wall_ms,
    )


def calibrate_constants(
    scenario: str,
    grid=(0.25, 0.5, 1.0, 2.0, 4.0),
    trials: int | None = None,
    seed: int = 0,
    params: dict | None = None,
) -> dict:
    """Smallest grid constant for which the scenario passes at the target.

    Every value of the strictly increasing grid is run (monotonicity is
    verified, not assumed); when none passes the result is flagged unbounded.
    The runs share one fresh memo: for ``pge-end-to-end`` each constant
    redraws only phase 1, and the cross-check and every trial index's
    full-grid deviation (phase 2, build and solve) are computed once per call
    (in worker processes, once per run).
    """
    knob = CALIBRATABLE.get(scenario)
    if knob is None:
        raise ValueError(f"scenario {scenario!r} does not support calibration")
    if knob in (params or {}):
        raise ValueError(f"{scenario} param {knob!r} is the calibrated constant "
                         f"and cannot be set")
    if not (len(grid) and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"calibration grid must be non-empty and strictly "
                         f"increasing, got {list(grid)}")
    passes = []
    memo: dict = {}
    for value in grid:
        config = ExperimentConfig(
            scenario=scenario, trials=trials, seed=seed,
            params={**(params or {}), knob: value},
        )
        passes.append(bool(run_scenario(config, memo).passed))
    smallest = next((value for value, ok in zip(grid, passes) if ok), None)
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
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def emit_report(result: ScenarioResult, path) -> None:
    """Write the JSON result and one CSV per curve next to it.

    Re-running an identical config produces byte-identical files except for
    the wall-time field.
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
