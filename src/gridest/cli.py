"""Command-line interface: run scenarios, list the catalog, calibrate constants.

Exit status is 0 iff the scenario assertion passed.  Configuration comes from
a single JSON document; the flags override individual fields.  Unknown fields
in the document are errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    CALIBRATABLE,
    SCENARIOS,
    ExperimentConfig,
    calibrate_constants,
    emit_report,
    run_scenario,
)

_CONFIG_FIELDS = {"scenario", "trials", "seed", "params", "out"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config_types(data) -> None:
    """Reject a config document whose fields have the wrong JSON types."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for name, ok, want in (
        ("scenario", lambda v: isinstance(v, str), "a string"),
        ("trials", lambda v: v is None or (_is_int(v) and v >= 1),
         "null or an integer >= 1"),
        ("seed", _is_int, "an integer"),
        ("params", lambda v: isinstance(v, dict), "an object"),
        ("out", lambda v: v is None or isinstance(v, str), "null or a string"),
    ):
        if name in data and not ok(data[name]):
            raise ValueError(
                f"config field {name!r} must be {want}, got {data[name]!r}"
            )


def _load_config(path, scenario: str | None) -> ExperimentConfig:
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        _check_config_types(data)
    if scenario is not None:
        data["scenario"] = scenario
    if "scenario" not in data:
        raise ValueError("no scenario given (argument or config field)")
    return ExperimentConfig(
        scenario=data["scenario"],
        trials=data.get("trials"),
        seed=data.get("seed", 0),
        params=dict(data.get("params", {})),
        out=data.get("out"),
    )


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    if args.trials is not None:
        config.trials = args.trials
    if args.out is not None:
        config.out = args.out
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
    config = _load_config(args.config, args.scenario)
    grid = tuple(float(x) for x in args.grid.split(","))
    outcome = calibrate_constants(
        config.scenario,
        target_epsilon=args.target_eps,
        target_delta=args.target_delta,
        grid=grid,
        trials=args.trials if args.trials is not None else config.trials,
        seed=args.seed if args.seed is not None else config.seed,
        params=config.params,
    )
    print(json.dumps(outcome, indent=2))
    if args.out or config.out:
        with open(args.out or config.out, "w", encoding="utf-8") as fh:
            json.dump(outcome, fh, indent=2)
            fh.write("\n")
    return 0 if not outcome["unbounded"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridest",
        description="Uniform-estimation scenarios over finite product domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", nargs="?", help="catalog scenario name")
    run_p.add_argument("--config", help="JSON config path")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--out", help="JSON report path (CSV curves next to it)")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list", help="print the scenario catalog")
    list_p.set_defaults(fn=_cmd_list)

    cal_p = sub.add_parser("calibrate", help="search a constant grid")
    cal_p.add_argument("scenario", nargs="?")
    cal_p.add_argument("--config")
    cal_p.add_argument("--target-eps", type=float, dest="target_eps")
    cal_p.add_argument("--target-delta", type=float, dest="target_delta")
    cal_p.add_argument("--grid", default="0.25,0.5,1,2,4")
    cal_p.add_argument("--trials", type=int)
    cal_p.add_argument("--seed", type=int)
    cal_p.add_argument("--out")
    cal_p.set_defaults(fn=_cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
