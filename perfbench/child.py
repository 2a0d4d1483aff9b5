"""One benchmark process: set up a workload, or set it up and measure it.

``--mode setup`` imports the library and builds the workload's fixed inputs,
then exits; the parent times the whole process.  ``--mode measure`` repeats
the workload's pass until ``--seconds`` would be exceeded (or ``--passes``
times), then runs the oracle checks outside the timed region and prints one
JSON object.  ``--trace 1`` records spans around the library's layers and
writes them to ``.perfbench_out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
import reference
import spans
import workloads

# a traced run writes its spans here, inside the checkout (gitignored)
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def measure(wl, seed: int, seconds: float, passes: int, trace: bool):
    inputs = wl.setup(seed)
    recorder = None
    tracing = contextlib.nullcontext()
    if trace:
        recorder = spans.Recorder()
        tracing = spans.installed(recorder, layers.TARGETS)
    ref = reference.Reference()
    log = workloads.TrialLog(ref, recorder)
    tally = workloads.Tally()
    walls, walls_ref, marks, verdicts, artifacts = [], [], [0], [], None
    start = time.perf_counter()
    with workloads.timed_trials(log), tracing:
        while True:
            ref.probe(force=True)
            t0 = time.perf_counter()
            try:
                got, kept = wl.run_pass(inputs, log, capture=not walls and not trace)
            except Exception as exc:  # a broken program: report it, stop measuring
                tally.op(f"pass {len(walls)}", False, f"raised {type(exc).__name__}: {exc}")
                break
            t1 = time.perf_counter()
            ref.probe(force=True)
            walls.append(t1 - t0 - ref.spent(t0, t1))
            walls_ref.append(walls[-1] / ref.unit(t0, t1))
            marks.append(len(log.values))
            verdicts.extend(got)
            if artifacts is None:
                artifacts = kept
            if passes:
                if len(walls) >= passes:
                    break
            elif time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for what, ok in verdicts:
        tally.op(what, ok)
    for value in log.values:
        tally.op("trial value", wl.value_ok(value), repr(value))
    digests = [workloads.digest(log.values[a:b]) for a, b in zip(marks, marks[1:])]
    for k, d in enumerate(digests[1:], start=1):
        tally.op(f"pass {k} repeats pass 0", d == digests[0])
    if not trace and artifacts is not None:
        wl.check(inputs, artifacts, tally)

    out = {
        "workload": wl.name,
        "seed": seed,
        "wall_s": walls,
        "wall_ref": walls_ref,
        "trial_s": log.seconds,
        "trial_ref": [d / ref.unit(t + d / 2) for t, d in zip(log.starts, log.seconds)],
        "ref_ms": 1000.0 * statistics.median(d for _, d in ref.samples),
        "trials_per_pass": marks[1] if len(marks) > 1 else len(log.values),
        "digest": digests[0] if digests else None,
        "peak_rss_mib": peak_rss_mib,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if trace:
        out["layers"] = layers.layer_values(recorder.spans, max(1, len(walls)))
        out["missing"] = recorder.missing
        SPANS_DIR.mkdir(exist_ok=True)
        spans.write_spans(recorder.spans, SPANS_DIR / f"{wl.name}.spans.csv")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=0, help="fixed pass count (0: by time)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        wl.setup(args.seed)
        return 0
    out = measure(wl, args.seed, args.seconds, args.passes, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
