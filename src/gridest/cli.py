"""Command-line interface: run scenarios, list the catalog, calibrate constants.

Exit status is 0 iff the scenario assertion passed, 1 when it failed, and 2
for a bad input or a path that cannot be read or written (``error: ...``,
no traceback).  An out path that is a directory, or whose directory does not
exist, is rejected before the run.  Configuration comes from a single JSON
document; the flags override individual fields.  Unknown fields in the
document are errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .experiments import (
    CALIBRATABLE,
    SCENARIOS,
    ExperimentConfig,
    calibrate_constants,
    check_config,
    emit_report,
    run_scenario,
)


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for name in ("scenario", "seed", "trials", "out"):
        if getattr(args, name) is not None:
            data[name] = getattr(args, name)
    if "scenario" not in data:
        raise ValueError("no scenario given (argument or config field)")
    config = ExperimentConfig(**data)
    for name in ("eps", "delta"):  # calibrate's --target-eps and --target-delta
        if getattr(args, name, None) is not None and isinstance(config.params, dict):
            config.params[name] = getattr(args, name)
    check_config(config)
    if config.out:  # checked before any run, without creating the file
        out = Path(config.out)
        if out.is_dir():
            raise ValueError(f"out path {out} is a directory")
        if not out.parent.is_dir():
            raise ValueError(f"out path {out}: {out.parent} is not a directory")
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = run_scenario(config)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.scenario}: {result.assertion}")
    if config.out:
        emit_report(result, config.out)
        print(f"report written to {config.out}")
    return 0 if result.passed else 1


def _cmd_list(args) -> int:
    for entry in SCENARIOS.values():
        knob = CALIBRATABLE.get(entry.name)
        extra = f" [calibratable: {knob}]" if knob else ""
        print(f"{entry.name}  (check {entry.check_id}){extra}")
        print(f"    {entry.claim}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_config(args)
    grid = tuple(float(x) for x in args.grid.split(","))
    outcome = calibrate_constants(
        config.scenario, grid=grid, trials=config.trials, seed=config.seed,
        params=config.params,
    )
    print(json.dumps(outcome, indent=2))
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(outcome, fh, indent=2)
            fh.write("\n")
    return 0 if not outcome["unbounded"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridest",
        description="Uniform-estimation scenarios over finite product domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", nargs="?", help="catalog scenario name")
    common.add_argument("--config", help="JSON config path")
    common.add_argument("--seed", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--out", help="JSON output path (run: CSV curves next to it)")

    run_p = sub.add_parser("run", parents=[common], help="run one scenario")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list", help="print the scenario catalog")
    list_p.set_defaults(fn=_cmd_list)

    cal_p = sub.add_parser("calibrate", parents=[common], help="search a constant grid")
    cal_p.add_argument("--target-eps", type=float, dest="eps")
    cal_p.add_argument("--target-delta", type=float, dest="delta")
    cal_p.add_argument("--grid", default="0.25,0.5,1,2,4")
    cal_p.set_defaults(fn=_cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
