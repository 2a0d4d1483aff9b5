"""The benchmark's workloads use only library names that still exist.

The test suite does not run ``perfbench/``, so a change that removes or
renames a name the workloads call would break the benchmark unseen.  This
reads ``perfbench/workloads.py`` as a syntax tree, without importing it, and
resolves every library name it uses.  It also reads, off real library
objects, the attributes that the workloads and ``perfbench/layers.py`` read,
and resolves every name that ``perfbench/layers.py`` wraps in a traced run.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np

from gridest import distributions, domain, estimators, experiments, families

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LAYERS = WORKLOADS.with_name("layers.py")
MODULES = ("distributions", "domain", "estimators", "experiments", "families")


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]`` when the chain starts at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def used_names() -> set[str]:
    """Every ``<module>.<attr>`` and ``<module>.<attr>.<attr>`` the workloads
    read from the library modules, and every ``spans.patched(module, "name")``
    target."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] in MODULES:
                names.add(".".join(chain[:3]))
        elif isinstance(node, ast.Call) and _dotted(node.func) == ["spans", "patched"]:
            module, attr = node.args[:2]
            names.add(f"{module.id}.{attr.value}")
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gridest.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_library_name_the_workloads_use_resolves():
    names = used_names()
    assert sorted(name for name in names if not _resolves(name)) == []


def test_the_collector_sees_calls_attributes_and_patched_targets():
    names = used_names()
    assert {
        "estimators.sup_deviation",             # a call
        "distributions.Modulus.identity",       # a class attribute
        "experiments.run_trials",               # spans.patched targets
        "experiments.check_grid_hitting",
    } <= names
    assert {name.split(".")[0] for name in names} == set(MODULES)


#: Attributes the benchmark reads off library objects rather than modules.
OBJECT_ATTRIBUTES = ("class_count", "is_structured", "axes", "cell_count",
                     "point_prob", "member_count", "split")


def test_the_object_attributes_are_still_read_by_the_benchmark():
    source = WORKLOADS.read_text(encoding="utf-8") + LAYERS.read_text(encoding="utf-8")
    assert [a for a in OBJECT_ATTRIBUTES if f".{a}" not in source] == []


def test_every_attribute_the_benchmark_reads_off_library_objects_resolves():
    dist = experiments.two_component_mixture(3)
    plan = estimators.SamplingPlan(
        epsilon=0.2, delta=0.1, lvc=1, width=2,
        modulus=distributions.Modulus.identity(), split=(100, 100),
    )
    m0, m1 = plan.split  # the workloads' boxes trials read the plan's split
    s = distributions.sample(dist, m0 + m1, 0)
    for family, structured in ((families.PermutationGraphs(3), True),
                               (families.AxisBoxes(dist.domain), False)):
        est = estimators.build_product_grid_estimator(s, family, plan)
        # layers read both to sort builds; workloads compare class counts
        assert est.is_structured is structured
        assert 1 <= int(est.class_count) == est.class_count <= family.member_count()
    grid = domain.build_grid(s[:m0], dist.domain)
    assert grid.cell_count == math.prod(axis.size for axis in grid.axes)
    truth = dist.point_prob(dist.domain.all_points())
    assert np.allclose(truth, dist.table().probs, rtol=0, atol=1e-15)
    hitting = families.ExplicitFamily(dist.domain, np.eye(9, dtype=bool))
    assert hitting.member_count() == 9


#: ``layers.TARGETS`` entries whose library names are gone.  A traced run
#: skips them and lists them in ``trace.missing``, so their layers read 0.
KNOWN_MISSING_TARGETS = {
    "gridest.estimators.cell_probability_matrix",
    "gridest.estimators.build_grid",
    "gridest.estimators.trace_of",
    "gridest.estimators.ProductGridEstimator.query",
    "gridest.estimators.ProductGridEstimator.estimate",
    "gridest.estimators.EmpiricalMeanEstimator.estimate",
    "gridest.estimators.EmpiricalProductEstimator.estimate",
    "gridest.estimators.ExactEstimator.estimate",
}


def traced_targets() -> list[tuple[str, str]]:
    """The ``(module, dotted path)`` of every ``layers.TARGETS`` entry."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no TARGETS list")


def _patchable(module: str, path: str) -> bool:
    """Whether ``spans.patched`` can wrap ``module`` + ``path``: the last name
    must sit in its owner's own namespace (``vars(owner)[attr]``)."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return attr in vars(owner)


def test_every_traced_target_resolves_but_the_known_missing():
    targets = traced_targets()
    assert ("gridest.domain", "ProductDomain.validate_points") in targets
    missing = {f"{module}.{path}" for module, path in targets
               if not _patchable(module, path)}
    # a newly missing name would read as a layer of 0 without an error; a
    # known one that resolves again should leave this list
    assert sorted(missing) == sorted(KNOWN_MISSING_TARGETS)
