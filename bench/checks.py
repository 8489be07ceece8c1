"""Output checks of one op, read from the files the CLI wrote.

Each check returns a list of problem strings; an empty list means the op
passed. Problems are kept in separate kinds so that a deliberate change of
behaviour (digest mismatches only) reads differently from a broken run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Wall-clock metadata; every other output must be byte-identical.
UNHASHED = {"run_meta.json"}
COMPARE_MODES = 4


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file under ``out``, keyed by relative path."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in UNHASHED:
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def digest_problems(digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = [f"{name}: missing" for name in sorted(expected.keys() - digests.keys())]
    problems += [f"{name}: not in reference" for name in sorted(digests.keys() - expected.keys())]
    problems += [
        f"{name}: sha256 {digests[name][:12]} != {expected[name][:12]}"
        for name in sorted(digests.keys() & expected.keys())
        if digests[name] != expected[name]
    ]
    return problems


def _last_row(series_csv: Path) -> dict[str, str]:
    with open(series_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("no rows")
    return rows[-1]


def conservation_problems(runs: Path) -> list[str]:
    """``injected == exited + active + n_on + n_off + in_circuit`` at the
    last step of every replication under ``runs``."""
    problems = []
    seed_dirs = sorted(runs.glob("seed_*"))
    if not seed_dirs:
        return [f"{runs}: no seed_* directories"]
    for seed_dir in seed_dirs:
        try:
            summary = json.loads((seed_dir / "metrics.json").read_text())["summary"]
            last = _last_row(seed_dir / "series.csv")
            held = sum(float(last[c]) for c in ("active", "n_on", "n_off", "in_circuit"))
            injected, exited = summary["injected"], summary["exited"]
        except (OSError, KeyError, ValueError) as e:
            problems.append(f"{seed_dir.name}: unreadable ({e})")
            continue
        if injected != exited + held:
            problems.append(
                f"{seed_dir.name}: injected {injected} != exited {exited} + on network/parked {held:g}"
            )
    return problems


def comparison_problems(comparison_csv: Path, seeds: list[int]) -> list[str]:
    """Four rows with finite values for every seed."""
    try:
        with open(comparison_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as e:
        return [f"comparison.csv: {e}"]
    problems = []
    for seed in seeds:
        mine = [r for r in rows if r.get("seed") == str(seed)]
        if len(mine) != COMPARE_MODES:
            problems.append(f"comparison.csv: {len(mine)} rows for seed {seed}, want {COMPARE_MODES}")
        for r in mine:
            values = [v for k, v in r.items() if k not in ("mode", "seed")]
            try:
                finite = all(math.isfinite(float(v)) for v in values)
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"comparison.csv: non-finite value in {r.get('mode')} seed {seed}")
    return problems


def veh_steps_from_outputs(out: Path, dt_sim: float = 1.0) -> int:
    """Simulated vehicle-steps: the ``active`` column of every series.csv,
    or the total travel time of every comparison row."""
    comparison = out / "compare" / "comparison.csv"
    if comparison.exists():
        with open(comparison, newline="") as fh:
            return sum(
                round(float(r["total_travel_time_veh_hr"]) * 3600.0 / dt_sim) for r in csv.DictReader(fh)
            )
    total = 0
    for series in sorted((out / "runs").glob("seed_*/series.csv")):
        with open(series, newline="") as fh:
            total += sum(round(float(r["active"])) for r in csv.DictReader(fh))
    return total
