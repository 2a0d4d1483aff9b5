"""Every catalog report at seed 2024 hashes to its committed pin.

Each scenario runs with at most 10 trials (single-pass ones with 1, and
``ssp-audit`` with a smaller population); its JSON report, minus the
``wall_ms`` timings and with sorted keys, and each CSV it writes are hashed
with SHA-256.  A change to a random stream or to any reported number shows
here as a changed digest.  Run as a script from a checkout, the file
checks the pins; a change that means to move the numbers regenerates them
with::

    python tests/test_report_pins.py --write

which prints each digest that moved, old -> new, and how many scenarios
kept all of theirs.

The pin file records the Python, numpy and scipy versions it was written
under; a mismatch prints them next to the running ones.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridest.experiments import SCENARIOS, ExperimentConfig, emit_report, run_scenario

PINS = Path(__file__).with_name("report_pins.json")
SEED = 2024
TRIALS = 10
#: smaller populations for scenarios that ignore the trial count
PARAMS = {"ssp-audit": {"random_families": 20}}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _drop_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_drop_wall_ms(v) for v in obj]
    return obj


def digests(name: str, out_dir: Path) -> dict:
    """The SHA-256 of the scenario's report JSON and of each of its CSVs."""
    entry = SCENARIOS[name]
    config = ExperimentConfig(
        scenario=name, seed=SEED, params=PARAMS.get(name, {}),
        trials=1 if entry.default_trials == 1 else TRIALS,
    )
    path = out_dir / f"{name}.json"
    emit_report(run_scenario(config), path)
    report = _drop_wall_ms(json.loads(path.read_text(encoding="utf-8")))
    found = {"json": hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()}
    for csv_path in sorted(out_dir.glob(f"{name}.*.csv")):
        found[csv_path.name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return found


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_pins_cover_the_catalog(pins):
    assert sorted(pins["reports"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_its_pin(name, pins, tmp_path):
    assert digests(name, tmp_path) == pins["reports"][name], (
        f"{name} report changed at seed {SEED}; pins written under "
        f"{pins['versions']}, running under {versions()}"
    )


def pin_moves(old: dict, new: dict) -> list[str]:
    """One ``scenario file: old -> new`` line per digest that differs (``none``
    where a side has no digest), then the count of scenarios with none."""
    lines, kept = [], 0
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        moved = [f"{name} {key}: {before.get(key, 'none')} -> {after.get(key, 'none')}"
                 for key in sorted(set(before) | set(after))
                 if before.get(key) != after.get(key)]
        lines += moved
        kept += not moved
    return lines + [f"{kept} scenarios unchanged"]


def test_pin_moves_names_each_moved_digest():
    old = {"a": {"json": "1"}, "b": {"json": "2", "b.x.csv": "3"}, "c": {"json": "4"}}
    new = {"a": {"json": "1"}, "b": {"json": "5"}, "d": {"json": "6"}}
    assert pin_moves(old, new) == [
        "b b.x.csv: 3 -> none", "b json: 2 -> 5",
        "c json: 4 -> none", "d json: none -> 6", "1 scenarios unchanged",
    ]


def write_pins(out_dir: Path) -> None:
    reports = {}
    for name in sorted(SCENARIOS):
        scenario_dir = out_dir / name
        scenario_dir.mkdir()
        reports[name] = digests(name, scenario_dir)
    old = {}
    if PINS.exists():
        old = json.loads(PINS.read_text(encoding="utf-8"))["reports"]
    PINS.write_text(
        json.dumps({"versions": versions(), "seed": SEED, "reports": reports},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    print("\n".join(pin_moves(old, reports)))


if __name__ == "__main__":
    import tempfile

    if not sys.argv[1:]:
        sys.exit(pytest.main(["-q", __file__]))
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} [--write]")
    with tempfile.TemporaryDirectory() as tmp:
        write_pins(Path(tmp))
    print(f"wrote {PINS}")
