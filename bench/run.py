"""parkdyn benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a parkdyn checkout. It builds the workload's inputs
from the seed, then runs ops in a closed loop (one client; the next op
starts when the previous one returns) for about S seconds. Every CLI
command of an op runs in a fresh Python process through
``parkdyn.cli.main``. Each op's outputs are checked; the last stdout line
is the JSON result, the line before it the details (environment, sample
counts, problems, digests, exact counts).

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` ops alternate untraced and traced, and the result holds the
per-layer metrics of the traced ops plus the tracing overhead.
``--update-reference`` (with ``--seed 0 --trace 1``) rewrites the stored
digests and exact counts instead of checking against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import tracing
from workloads import BENCH_DIR, REFERENCE_SEED, WORKLOADS, Workload, write_inputs

REFERENCE_FILE = BENCH_DIR / "reference.json"
SETUP_PROBES = 4  # import-only processes per run, after one unmeasured warm-up
MIN_OPS = 2  # so a traced run has an untraced and a traced op
STEP_TIMEOUT_S = 150
PROBLEM_KINDS = ("crash", "digest_mismatch", "invalid_output", "count_mismatch")


def median_with_count(values) -> tuple[float, int]:
    """Median of the samples and how many there were (0.0 for none)."""
    values = list(values)
    return (float(statistics.median(values)) if values else 0.0), len(values)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------------- processes


def spawn(result_path: Path, env: dict, log: Path, cli_args=(), trace_op=None) -> dict:
    """Run one op process to completion; returns its set-up time (spawn to
    end of ``import parkdyn.cli``), return code, peak RSS and trace."""
    cmd = [sys.executable, str(BENCH_DIR / "opmain.py"), str(result_path)]
    if trace_op is not None:
        cmd += ["--trace", trace_op]
    if cli_args:
        cmd += ["--", *cli_args]
    started = time.monotonic()
    with open(log, "w") as fh:
        try:
            exit_code = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                       timeout=STEP_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            exit_code = None
    try:
        res = json.loads(result_path.read_text())
    except (OSError, ValueError):
        res = {"rc": 1, "error": f"no result file (exit code {exit_code})", "maxrss_kb": 0,
               "spans": [], "sims": [], "imported_at": None}
    return {
        "setup_s": None if res["imported_at"] is None else res["imported_at"] - started,
        "rc": res["rc"],
        "error": res["error"],
        "maxrss_kb": res["maxrss_kb"],
        "spans": res["spans"],
        "sims": res["sims"],
        "log": log,
    }


def _log_tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text().splitlines()[-lines:])
    except OSError:
        return ""


def run_op(index: int, traced: bool, workload: Workload, seeds, inputs: Path, work: Path, env) -> dict:
    out = work / f"op{index}"
    steps = workload.steps(inputs, out, seeds)
    problems = {kind: [] for kind in PROBLEM_KINDS}
    procs = []
    started = time.monotonic()
    for j, argv in enumerate(steps):
        p = spawn(work / f"op{index}-{j}.json", env, work / f"op{index}-{j}.log", argv,
                  trace_op=str(index) if traced else None)
        procs.append(p)
        if p["rc"] != 0 or p["error"]:
            problems["crash"].append(
                f"`parkdyn {' '.join(argv[:2])}` rc={p['rc']}: {p['error'] or _log_tail(p['log'])}"
            )
            break
    op_s = time.monotonic() - started

    op = {"index": index, "traced": traced, "op_s": op_s, "procs": procs, "problems": problems,
          "digests": {}, "counts": {}}
    if problems["crash"]:
        return op
    op["digests"] = checks.output_digests(out)
    if (out / "runs").exists():
        problems["invalid_output"] += checks.conservation_problems(out / "runs")
    if workload.name == "pricing-compare":
        problems["invalid_output"] += checks.comparison_problems(out / "compare" / "comparison.csv", seeds)
    op["veh_steps"] = checks.veh_steps_from_outputs(out)
    op["counts"] = {"microsim.veh_steps": op["veh_steps"]}
    if traced:
        op["layers"] = tracing.op_metrics([(p["spans"], p["sims"]) for p in procs])
        op["counts"] = {k: op["layers"][k] for k in tracing.EXACT_COUNTS}
        if op["layers"]["microsim.veh_steps"] != op["veh_steps"]:
            problems["count_mismatch"].append(
                f"traced veh-steps {op['layers']['microsim.veh_steps']} != {op['veh_steps']} in the outputs"
            )
    shutil.rmtree(out, ignore_errors=True)
    return op


# ----------------------------------------------------------------- checks


def cross_check(ops: list[dict], reference: dict | None) -> None:
    """Digests and exact counts must match the stored reference (default
    seed only) and agree across the ops of this run, which repeat one op."""
    done = [op for op in ops if not op["problems"]["crash"]]
    for op in done:
        if reference is not None:
            op["problems"]["digest_mismatch"] += [
                f"vs reference: {p}" for p in checks.digest_problems(op["digests"], reference["digests"])
            ]
            op["problems"]["count_mismatch"] += [
                f"vs reference: {k} = {v}, stored {reference['counts'][k]}"
                for k, v in op["counts"].items()
                if k in reference["counts"] and v != reference["counts"][k]
            ]
        first = done[0]
        if op is not first:
            op["problems"]["digest_mismatch"] += [
                f"vs op {first['index']}: {p}" for p in checks.digest_problems(op["digests"], first["digests"])
            ]
        seen = next(o for o in done if o["traced"] == op["traced"])
        op["problems"]["count_mismatch"] += [
            f"vs op {seen['index']}: {k} = {v}, was {seen['counts'][k]}"
            for k, v in op["counts"].items()
            if seen["counts"].get(k, v) != v
        ]


def failed(op) -> bool:
    return any(op["problems"].values())


# ---------------------------------------------------------------- metrics


def end_to_end(ops: list[dict], setup_samples: list[float]) -> tuple[dict, dict]:
    op_s, n_ops = median_with_count(op["op_s"] for op in ops)
    rates = [op["veh_steps"] / op["op_s"] for op in ops if op.get("veh_steps")]
    rss = [max(p["maxrss_kb"] for p in op["procs"]) / 1024.0 for op in ops]
    setup_s, n_setup = median_with_count(setup_samples)
    ok = sum(not failed(op) for op in ops) / len(ops)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_s": metric(op_s, "s"),
        "peak_rss_mb": metric(median_with_count(rss)[0], "MB"),
        "ops_ok_frac": metric(ok, "frac"),
    }
    # Vehicle-steps are a small share of the pricing-compare op, so their
    # rate spreads over seeds beyond any allowed bound there: details only.
    extra = {"samples": {"op_s": n_ops, "setup_s": n_setup},
             "veh_steps_per_s": median_with_count(rates)[0]}
    return metrics, extra


PER_LAYER_UNITS = {
    "microsim.runs": "count", "microsim.busy_s": "s", "microsim.self_s": "s",
    "microsim.veh_steps": "count", "microsim.us_per_veh_step": "us", "microsim.exited_frac": "frac",
    "cli.write_s": "s", "cli.read_s": "s", "cli.read_calls": "count", "cli.bytes_written": "B",
    "cli.bytes_read": "B", "cli.self_s": "s",
    "calibration.busy_s": "s", "calibration.fit_nfd_s": "s", "calibration.validate_s": "s",
    "calibration.self_s": "s",
    "macromodel.calls": "count", "macromodel.steps": "count", "macromodel.busy_s": "s",
    "macromodel.us_per_step": "us", "macromodel.self_s": "s",
    "macromodel.busy_s.mpc_loop": "s", "macromodel.busy_s.full_horizon": "s",
    "macromodel.busy_s.other": "s", "macromodel.steps.mpc_loop": "count",
    "macromodel.steps.full_horizon": "count", "macromodel.steps.other": "count",
    "mpc.solves": "count", "mpc.evaluations": "count", "mpc.cache_hit_frac": "frac",
    "mpc.evals_per_s": "1/s", "mpc.self_s": "s", "mpc.read_state_s": "s", "mpc.plant_s": "s",
    "trace.op_s": "s", "trace.overhead_s": "s", "trace.spanned_s": "s", "trace.unspanned_s": "s",
    "trace.setup_s": "s",
}


def per_layer(ops: list[dict]) -> tuple[dict, dict]:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op for op in ops if not op["traced"]]
    for op in traced:
        op["layers"]["trace.op_s"] = op["op_s"]
        op["layers"]["trace.unspanned_s"] = op["op_s"] - op["layers"]["trace.spanned_s"]
        op["layers"]["trace.setup_s"] = sum(p["setup_s"] or 0.0 for p in op["procs"])
    values = {}
    for name in PER_LAYER_UNITS:
        if name != "trace.overhead_s":
            values[name] = median_with_count(op["layers"][name] for op in traced)[0]
    values["trace.overhead_s"] = values["trace.op_s"] - median_with_count(op["op_s"] for op in plain)[0]
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, {"samples": {"traced_ops": len(traced), "untraced_ops": len(plain)}}


# -------------------------------------------------------------------- run


def environment(root: Path, workload: str, seed: int, seeds) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "parkdyn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workload": workload,
        "seed": seed,
        "plant_seeds": seeds,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.update_reference and (args.seed != REFERENCE_SEED or not args.trace):
        ap.error(f"--update-reference needs --seed {REFERENCE_SEED} --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "parkdyn" / "cli.py").is_file():
        print(f"bench: no parkdyn sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import parkdyn

    if not Path(parkdyn.__file__).resolve().is_relative_to(src):
        print(f"bench: imported parkdyn from {parkdyn.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = workload.plant_seeds(args.seed)
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pythonpath = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    try:
        write_inputs(workload, work / "inputs")
        spawn(work / "warmup.json", env, work / "warmup.log")
        setup_samples = [spawn(work / f"probe{i}.json", env, work / f"probe{i}.log")["setup_s"]
                         for i in range(SETUP_PROBES)]
        ops = []
        start = time.monotonic()
        while True:
            op_started = time.monotonic()
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(run_op(len(ops), traced, workload, seeds, work / "inputs", work, env))
            last = time.monotonic() - op_started
            if len(ops) >= MIN_OPS and time.monotonic() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = None
    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    if args.seed == REFERENCE_SEED and not args.update_reference:
        reference = stored.get(workload.name)
        if reference is None:
            print(f"bench: no stored reference for {workload.name}", file=sys.stderr)
            return 2
    cross_check(ops, reference)
    if args.update_reference:
        traced_op = next(op for op in ops if op["traced"])
        stored[workload.name] = {"plant_seeds": seeds, "digests": ops[0]["digests"],
                                 "counts": traced_op["counts"]}
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    setup_samples += [p["setup_s"] for op in ops if not op["traced"] for p in op["procs"]]
    setup_samples = [s for s in setup_samples if s is not None]
    if args.trace:
        metrics, extra = per_layer(ops)
    else:
        metrics, extra = end_to_end(ops, setup_samples)
    n_failed = sum(failed(op) for op in ops)
    problems = [f"op {op['index']} {kind}: {p}" for op in ops for kind, ps in op["problems"].items() for p in ps]
    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    traced_ops = [op for op in ops if op["traced"]]
    trace_file = None
    if traced_ops:
        trace_file = root / ".bench_work" / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps([s for op in traced_ops for p in op["procs"] for s in p["spans"]]))
    details = {
        "env": environment(root, workload.name, args.seed, seeds),
        "op_s_samples": [op["op_s"] for op in ops if not op["traced"]],
        "setup_s_samples": setup_samples,
        "failures": {kind: sum(bool(op["problems"][kind]) for op in ops) for kind in PROBLEM_KINDS},
        "problems": problems[:50],
        "reference_checked": reference is not None,
        "counts": ops[0]["counts"] if not traced_ops else traced_ops[0]["counts"],
        "digests": ops[0]["digests"],
        "trace_file": str(trace_file.relative_to(root)) if trace_file else None,
        **extra,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": n_failed == 0, "attempted": len(ops), "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
