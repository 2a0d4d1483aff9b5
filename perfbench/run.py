"""Benchmark for gridest: four seeded workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, seed 2024
    python3 perfbench/run.py --workload grid-hitting --seed 7 --seconds 20
    python3 perfbench/run.py --workload boxes-trace-index --trace 1

Each workload runs in fresh child processes that import ``gridest`` from
``src/`` with ``GRIDEST_WORKERS=1``.  ``--trace 0`` reports the end-to-end
metrics, with timings in units of a reference kernel timed alongside (see
``reference.py``); ``--trace 1`` runs the workload untraced and then traced
for the same number of passes and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.
Exit status is 2 when the library's sources are not found, 1 when a child
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, repeated so that this process never imports
# gridest (a missing or broken library must fail in a child, not here)
WORKLOADS = ("pge-calibrate", "deviation-scaling", "grid-hitting", "boxes-trace-index")
SETUP_PROBES = 5
# set-up time is measured against fresh interpreters that import numpy: the
# same kind of work (process start, module imports), so the host's speed
# steps move both alike; REF_LAUNCH_S converts the ratio back to seconds
REF_LAUNCH = ["-c", "import numpy"]
REF_LAUNCH_S = 0.2
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "trial_ref_p50": "ref",
    "trial_ref_p90": "ref",
    "peak_rss_mib": "MiB",
}
# printed beside the gated metrics, not gated: raw seconds move with the host
RAW_UNITS = {"wall_s": "s", "trial_ms_p50": "ms", "trial_ms_p90": "ms", "ref_ms": "ms",
             "setup_raw_s": "s", "ref_launch_s": "s"}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment with this checkout's gridest first on the path,
    and every source of parallelism (trial workers, BLAS threads) pinned to 1."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("GRIDEST_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_run(argv: list[str]) -> tuple[float, str]:
    """Wall seconds and standard output of ``python argv`` in ``child_env()``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildError(f"child {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return seconds, proc.stdout


def run_child(args: list[str]) -> dict | None:
    """Run ``child.py`` with ``args``; the parsed last stdout line, if any."""
    lines = timed_run([str(HERE / "child.py"), *args])[1].strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``0 <= q <= 100``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_seconds(workload: str, seed: int) -> tuple[float, float, float]:
    """Set-up time: (in reference seconds, raw seconds, reference launch seconds).

    Fresh interpreters each import gridest and build the workload's inputs,
    SETUP_PROBES times, with a reference launch before the first and after
    each.  Each set-up time is divided by the mean of the launches on either
    side of it and multiplied by REF_LAUNCH_S; the median is reported, with
    the median raw time and launch time beside it.
    """
    args = [str(HERE / "child.py"), "--mode", "setup", "--workload", workload,
            "--seed", str(seed)]
    refs = [timed_run(REF_LAUNCH)[0]]
    raw, ratios = [], []
    for _ in range(SETUP_PROBES):
        raw.append(timed_run(args)[0])
        refs.append(timed_run(REF_LAUNCH)[0])
        ratios.append(raw[-1] / ((refs[-2] + refs[-1]) / 2.0))
    return (REF_LAUNCH_S * statistics.median(ratios), statistics.median(raw),
            statistics.median(refs))


def measure(workload: str, seed: int, seconds: float, passes: int = 0,
            trace: bool = False) -> dict:
    args = ["--mode", "measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--passes", str(passes),
            "--trace", str(int(trace))]
    res = run_child(args)
    if not res["wall_s"]:
        raise ChildError(f"{workload}: no pass completed: {res['failures']}")
    return res


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """(gated metrics, raw timings, untraced child result) with tracing off."""
    setup, setup_raw, ref_launch = setup_seconds(workload, seed)
    res = measure(workload, seed, seconds)
    values = {
        "setup_s": setup,
        "wall_ref": statistics.median(res["wall_ref"]),
        "trial_ref_p50": percentile(res["trial_ref"], 50),
        "trial_ref_p90": percentile(res["trial_ref"], 90),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    trial_ms = [1000.0 * s for s in res["trial_s"]]
    raw = {
        "wall_s": statistics.median(res["wall_s"]),
        "trial_ms_p50": percentile(trial_ms, 50),
        "trial_ms_p90": percentile(trial_ms, 90),
        "ref_ms": res["ref_ms"],
        "setup_raw_s": setup_raw,
        "ref_launch_s": ref_launch,
    }
    return _with_units(values, E2E_UNITS), _with_units(raw, RAW_UNITS), res


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """(metrics, [untraced, traced] child results) from a paired traced run."""
    plain = measure(workload, seed, seconds / 2.0)
    traced = measure(workload, seed, seconds, passes=len(plain["wall_s"]), trace=True)
    values = dict(traced["layers"])
    untraced_wall = statistics.median(plain["wall_ref"])
    traced_wall = statistics.median(traced["wall_ref"])
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["trace.untraced_wall_ref"] = untraced_wall
    values["trace.traced_wall_ref"] = traced_wall
    return _with_units(values, layers.metric_names()), [plain, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result object: correct, attempted, failed, metrics."""
    raw = {}
    if trace:
        metrics, results = per_layer(workload, seed, seconds)
        attempted = sum(r["attempted"] for r in results) + 1
        same = results[0]["digest"] == results[1]["digest"]
        failed = sum(r["failed"] for r in results) + (0 if same else 1)
        failures = [f for r in results for f in r["failures"]]
        if not same:
            failures.append("traced digest differs from untraced digest")
    else:
        metrics, raw, res = end_to_end(workload, seed, seconds)
        results = [res]
        attempted, failed, failures = res["attempted"], res["failed"], res["failures"]
    report(workload, seed, {**metrics, **raw}, results, attempted, failed, failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(workload, seed, metrics, results, attempted, failed, failures) -> None:
    first = results[0]
    v = first["versions"]
    print(f"== {workload}  seed {seed}  passes {len(first['wall_s'])}  "
          f"trials/pass {first['trials_per_pass']}  trials timed {len(first['trial_s'])}")
    print(f"   python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
          f"nproc {v['nproc']}  GRIDEST_WORKERS=1")
    for r in results:
        print(f"   digest {r['digest']}" + ("  (traced)" if "layers" in r else ""))
    if len(results) > 1:
        missing = results[1]["missing"]
        print(f"   trace.missing {len(missing)}" + (f": {', '.join(missing)}" if missing else ""))
    for name, m in metrics.items():
        print(f"   {name:<58} {m['value']:>16.6g} {m['unit']}")
    print(f"   {'failed_frac':<58} {failed / max(1, attempted):>16.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for f in failures:
        print(f"   FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gridest" / "__init__.py").is_file():
        print(f"error: gridest sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
