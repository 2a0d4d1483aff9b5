"""Uniform estimation of event probabilities over finite product domains.

The library provides finite product domains with empirical grids, set
families with exact dimension machinery (VC and linear VC), finite
distributions with box projections and moduli of box-continuity,
information-theoretic primitives for lower bounds, four estimators on one
cell-weight core including the two-phase product-grid estimator, and a seeded scenario
runner that validates the theory at desk scale.
"""

from .combinatorics import (
    DimensionCert,
    aggregation_eta,
    binomle,
    count_traces,
    enumerate_hd_permutations,
    grid_ssp_bound,
    grid_ssp_bound_maxside,
    grid_ssp_rate,
    linear_vc_dimension,
    random_explicit_family,
    union_family_lower_check,
    vc_dimension,
)
from .distributions import (
    JointTable,
    MixtureDistribution,
    Modulus,
    ProductDistribution,
    biased_cube_family,
    box_projection,
    code_rate,
    dump_distribution,
    event_probability,
    exhaustive_event_probabilities,
    gilbert_varshamov_code,
    load_distribution,
    marginal_counts,
    mixture_modulus,
    mixture_tightness_instance,
    sample,
    sample_counts,
    tc_modulus,
    total_correlation,
)
from .domain import (
    AxisLine,
    CapExceededError,
    Grid,
    NotEnumerableError,
    ProductDomain,
    build_grid,
    enumerate_axis_lines,
    grid_from_counts,
)
from .estimators import (
    DeviationReport,
    EmpiricalMeanEstimator,
    EmpiricalProductEstimator,
    ExactEstimator,
    ProductGridEstimator,
    SamplingPlan,
    build_product_grid_estimator,
    check_grid_hitting,
    phase1_size,
    phase2_size,
    product_case_size,
    sup_deviation,
)
from .experiments import (
    ExperimentConfig,
    ScenarioResult,
    SCENARIOS,
    calibrate_constants,
    emit_report,
    run_scenario,
)
from .families import (
    AxisBoxes,
    ExplicitFamily,
    IntervalsOnAxis,
    PermutationGraphs,
    PowerSetFamily,
    SetFamily,
    UnionsOfPermutations,
    dump_family,
    load_family,
    perm_graph_bits,
    symdiff_family,
)
from .info import (
    bernoulli_bias_kl,
    binary_entropy,
    binary_entropy_bits,
    hellinger_sq,
    hellinger_sq_biased_product,
    kl_additivity_check,
    kl_divergence,
    tv_distance,
)

__version__ = "0.1.0"
