"""Which library names the traced run wraps, and the per-layer metrics.

Each target is a name in a library namespace through which the library (or
the benchmark's own loop) makes the call: ``gridest.experiments.sample`` is
the binding the scenario trials use, ``gridest.estimators.build_grid`` the
one the product-grid builder uses.  Span names are ``<module>.<function>``
after the module that defines the function.
"""

from __future__ import annotations

import spans

BUILD = "estimators.build_product_grid_estimator"
SAMPLE = "distributions.sample"
MEMBERS = "families.members_matrix"
ESTIMATE = "estimators.estimate"
SUP = "estimators.sup_deviation"


def _points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _cells(args, kwargs, result):
    return {"cells": int(result.cell_count)}


def _members(args, kwargs, result):
    return {"members": int(result.shape[0])}


def _build(args, kwargs, est):
    structured = bool(est.is_structured)
    return {
        "structured": int(structured),
        "explicit": int(not structured),
        "trace_classes": 0 if structured else int(est.class_count),
    }


def _method(args, kwargs, result):
    return {kwargs.get("method", args[3] if len(args) > 3 else "auto"): 1}


def _pairs(args, kwargs, result):
    count = (args[0] if args else kwargs["family"]).member_count()
    return {"pairs": count * (count - 1) // 2, "missed_pairs": len(result)}


def _trials(args, kwargs, result):
    return {"trials": len(result)}


TARGETS = [
    ("gridest.experiments", "sample", SAMPLE, _points),
    ("gridest.distributions", "sample", SAMPLE, _points),
    ("gridest.estimators", "cell_probability_matrix",
     "distributions.cell_probability_matrix", None),
    ("gridest.distributions", "ProductDistribution.table", "distributions.table", None),
    ("gridest.distributions", "MixtureDistribution.table", "distributions.table", None),
    ("gridest.distributions", "JointTable.table", "distributions.table", None),
    ("gridest.experiments", "build_grid", "domain.build_grid", _cells),
    ("gridest.estimators", "build_grid", "domain.build_grid", _cells),
    ("gridest.domain", "ProductDomain.validate_points", "domain.validate_points", None),
    ("gridest.families", "AxisBoxes.members_matrix", MEMBERS, _members),
    ("gridest.families", "ExplicitFamily.members_matrix", MEMBERS, _members),
    ("gridest.families", "PermutationGraphs.members_matrix", MEMBERS, _members),
    ("gridest.estimators", "trace_of", "families.trace_of", None),
    ("gridest.experiments", "build_product_grid_estimator", BUILD, _build),
    ("gridest.estimators", "build_product_grid_estimator", BUILD, _build),
    ("gridest.estimators", "ProductGridEstimator.query", ESTIMATE, None),
    ("gridest.estimators", "ProductGridEstimator.estimate", ESTIMATE, None),
    ("gridest.estimators", "EmpiricalMeanEstimator.estimate", ESTIMATE, None),
    ("gridest.estimators", "EmpiricalProductEstimator.estimate", ESTIMATE, None),
    ("gridest.estimators", "ExactEstimator.estimate", ESTIMATE, None),
    ("gridest.experiments", "sup_deviation", SUP, _method),
    ("gridest.estimators", "sup_deviation", SUP, _method),
    ("gridest.estimators", "max_assignment_value",
     "estimators.max_assignment_value", None),
    ("gridest.experiments", "check_grid_hitting",
     "estimators.check_grid_hitting", _pairs),
    ("gridest.experiments", "run_trials", "experiments.run_trials", _trials),
    ("gridest.experiments", "run_scenario", "experiments.run_scenario", None),
    ("gridest.experiments", "calibrate_constants",
     "experiments.calibrate_constants", None),
]

# span name -> the statistics reported for it
REPORTED = {
    SAMPLE: ("calls", "points", "busy_s"),
    "distributions.cell_probability_matrix": ("calls", "busy_s"),
    "distributions.table": ("calls", "busy_s"),
    "domain.build_grid": ("calls", "cells", "busy_s", "self_s"),
    "domain.validate_points": ("calls", "busy_s"),
    MEMBERS: ("calls", "members", "busy_s"),
    "families.trace_of": ("calls", "busy_s"),
    BUILD: ("calls", "structured", "explicit", "trace_classes", "not_enumerable",
            "busy_s", "self_s"),
    ESTIMATE: ("calls", "busy_s"),
    SUP: ("calls", "assignment", "enumerate", "busy_s", "self_s"),
    "estimators.max_assignment_value": ("calls", "busy_s"),
    "estimators.check_grid_hitting": ("calls", "pairs", "missed_pairs", "busy_s"),
    "experiments.run_trials": ("calls", "trials", "busy_s", "self_s"),
    "experiments.run_scenario": ("calls", "busy_s", "self_s"),
    "experiments.calibrate_constants": ("calls", "busy_s"),
}

# derived metrics, each next to its base
DERIVED = {
    "estimators.grid_miss_frac": "ratio",
    "estimators.classes_per_member": "ratio",
    "estimators.classes_per_member.members": "count",
    "trace_overhead_frac": "ratio",
    "trace.untraced_wall_ref": "ref",
    "trace.traced_wall_ref": "ref",
    "trace.spans": "count",
}


def metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, stats in REPORTED.items():
        for stat in stats:
            out[f"{name}.{stat}"] = "s" if stat.endswith("_s") else "count"
    out.update(DERIVED)
    return out


def layer_values(span_list, passes: int) -> dict[str, float]:
    """Per-pass layer statistics from the traced run's spans (no wall ratios)."""
    stats = spans.layer_stats(span_list)
    build = stats.get(BUILD, {})
    values = {}
    for name, wanted in REPORTED.items():
        st = stats.get(name, {})
        for stat in wanted:
            if stat == "not_enumerable":
                raw = st.get("errors", {}).get("NotEnumerableError", 0)
            else:
                raw = st.get(stat, 0)
            values[f"{name}.{stat}"] = raw / passes
    explicit_members = sum(
        (rec[spans.COUNTS] or {}).get("members", 0)
        for rec in span_list
        if rec[spans.NAME] == MEMBERS
        and rec[spans.PARENT] >= 0
        and span_list[rec[spans.PARENT]][spans.NAME] == BUILD
        and (span_list[rec[spans.PARENT]][spans.COUNTS] or {}).get("explicit")
    )
    builds = build.get("calls", 0)
    misses = build.get("errors", {}).get("NotEnumerableError", 0)
    values["estimators.grid_miss_frac"] = misses / builds if builds else 0.0
    values["estimators.classes_per_member"] = (
        build.get("trace_classes", 0) / explicit_members if explicit_members else 0.0
    )
    values["estimators.classes_per_member.members"] = explicit_members / passes
    values["trace.spans"] = len(span_list) / passes
    return values
