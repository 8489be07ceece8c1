"""Command-line orchestration: build networks, run replications, sweep the
two-bin theory, calibrate, validate, and compare pricing policies.

Every command rewrites its outputs byte-identically for the same inputs;
wall-clock metadata goes only to a run_meta.json side file.
"""

from __future__ import annotations

import os
import sys

# Every BLAS call of this package (re-departure dots of a few hundred
# entries, 3-parameter fits) is far below the sizes at which OpenBLAS splits
# work, yet numpy's and scipy's OpenBLAS each start a thread pool when they
# load. Ask for one thread before numpy loads, unless the environment says
# otherwise; a process that loaded numpy first (a test run, a notebook) keeps
# its own setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import inspect
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bintheory, calibration, estimators, macromodel, mpc, network, microsim, scenarios


def write_csv(path, table: microsim.Table, rows):
    """Write ``table``'s header and then ``rows``, tuples of its column kinds,
    each formatted by one ``%`` over ``table.row`` and streamed to the file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(table.header)
        fh.writelines(map(table.row.__mod__, rows))


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_meta(out_dir, argv):
    write_json(Path(out_dir) / "run_meta.json", {"argv": argv, "written_at": time.time()})


def _parse_list(text: str, flag: str, kind=int) -> list:
    """The comma- or space-separated ``kind`` (int, float or str) values of
    ``flag``. A repeated value would run, or sweep, twice and write the same
    outputs twice, so it is rejected."""
    try:
        values = [kind(s) for s in text.replace(",", " ").split()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag}: {text!r} is not a list of {what}") from None
    if not values:
        raise ValueError(f"{flag}: no {flag[2:]} given")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{flag}: {flag[2:].rstrip('s')} {repeated[0]!r} is given more than once")
    return values


def _check_choices(values: list, flag: str, what: str, choices) -> None:
    bad = [v for v in values if v not in choices]
    if bad:
        raise ValueError(f"{flag}: unknown {what} {bad[0]!r}, expected one of {', '.join(choices)}")


class _Domain(NamedTuple):
    rule: str
    holds: Callable[[float], bool]


def _at_least(low: int) -> _Domain:
    return _Domain(f"must be >= {low}", lambda x: x >= low)


_FINITE = _Domain("must be finite", math.isfinite)
_POSITIVE = _Domain("must be > 0 and finite", lambda x: 0 < x < math.inf)


# ------------------------------------------------------------------ net


def cmd_net_build(args):
    # net build's flags are desk_network's parameters; one not given keeps its default
    given = {p: getattr(args, p) for p in inspect.signature(scenarios.desk_network).parameters}
    net = scenarios.desk_network(**{k: v for k, v in given.items() if v is not None})
    network.save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.nodes)} nodes, {len(net.links)} links, "
          f"{net.total_parking_capacity} spots, {int(net.lot is not None)} lots")
    return 0


def cmd_net_check(args):
    try:
        net = network.load_network(args.net)
    except ValueError as e:
        print(f"INVALID: {e}", file=sys.stderr)
        return 1
    ok = net.is_strongly_connected()
    print(
        f"{args.net}: {len(net.nodes)} nodes, {len(net.links)} links, "
        f"L={net.total_length:.3f} km, {net.total_parking_capacity} on-street spots, "
        f"{int(net.lot is not None)} lots, regions={list(net.regions())}, "
        f"strongly_connected={ok}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- micro


def _run_one_seed(net, sc, seed, out_dir, nfd_window):
    res = microsim.Simulation(net, sc, seed).run()
    summary, cols = res.summary, microsim.SERIES_COLUMNS
    seed_dir = Path(out_dir) / f"seed_{seed}"
    write_csv(seed_dir / "events.csv", microsim.EVENTS_CSV, res.events)
    rows = microsim.measure_nfd(res.series, summary.network_length, nfd_window, res.dt_sim)
    write_csv(seed_dir / "nfd.csv", microsim.NFD_CSV, rows)
    write_csv(seed_dir / "series.csv", microsim.SERIES_CSV,
              _row_blocks([res.series[c] for c in cols]))
    metrics = microsim.performance_metrics(res)
    metrics["summary"] = asdict(summary)
    times = microsim.time_metrics(res.series, res.dt_sim, summary.l_off, summary.v_off_f)
    metrics["ineffective_cruising_veh_hr"] = times["ineffective_cruising_veh_hr"]
    write_json(seed_dir / "metrics.json", metrics)


def _row_blocks(columns: list[np.ndarray]):
    """The rows of equal-length ``columns``, made 256 rows at a time: Python
    floats format faster than numpy scalars, and only one block of them
    exists at once."""
    for lo in range(0, len(columns[0]), 256):
        yield from zip(*(c[lo : lo + 256].tolist() for c in columns))


def _read_csv(path, table: microsim.Table) -> list[list]:
    """The columns of ``table`` in a CSV file with a header line, each
    converted by the converter of its kind. A converter runs once per
    distinct text, and equal texts share one converted object, so a value
    repeated across rows (a family name, a link id, a time) is held once. The
    file is read once, row by row; its first fault (line, then field in
    ``table.columns`` order) raises a ValueError naming the file, the line
    and the field: a short row, a value its converter rejects (a non-UTF-8
    byte included) or a line the csv module rejects (named by line alone). A
    missing column is named instead."""
    columns, types = table.columns, [_CONVERTERS[k] for k in table.kinds]
    # an undecodable byte becomes a lone surrogate, which float, int and _utf8 reject
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: missing column {missing[0]!r}")
            memos = {t: {} for t in types}
            picks = [(c, header.index(c), t, memos[t], []) for c, t in zip(columns, types)]
            for line, row in enumerate(reader, start=2):
                if len(row) < len(header):
                    raise ValueError(f"{path} line {line}: field {header[len(row)]!r} missing")
                try:
                    for c, i, t, memo, col in picks:
                        text = row[i]
                        value = memo.get(text)  # no converter returns None
                        if value is None:
                            value = memo[text] = t(text)
                        col.append(value)
                except _Rule as e:
                    raise ValueError(f"{path} line {line}: field {c!r} {e}") from None
                except ValueError:
                    bad = f"{path} line {line}: field {c!r}: bad value {text!r}"
                    raise ValueError(bad) from None
        except csv.Error as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from None
    return [col for *_, col in picks]


class _Rule(ValueError):
    """A converter's rule that a well-formed value breaks, such as finiteness."""


def _utf8(text: str) -> str:
    text.encode()  # UnicodeEncodeError, a ValueError, on an escaped non-UTF-8 byte
    return text


def _finite(text: str) -> float:
    value = float(text)
    if not _FINITE.holds(value):
        raise _Rule(_FINITE.rule)
    return value


# the reader's converter of each column kind of microsim.CELL_FORMATS: a
# float read back from a run directory must be finite
_CONVERTERS = {"int": int, "str": _utf8, "float": _finite}


def load_events_csv(path) -> list[microsim.Event]:
    return list(map(microsim.Event, *_read_csv(path, microsim.EVENTS_CSV)))


@dataclass(frozen=True)
class _RunMetrics:
    """The part of a run's metrics.json that is read back."""

    summary: microsim.RunSummary


def load_run_dir(seed_dir, events=True) -> microsim.RunResult:
    """Rebuild the pieces of a RunResult that calibration needs. With
    ``events=False`` the event log is not read and ``events`` is empty."""
    seed_dir = Path(seed_dir)
    log = load_events_csv(seed_dir / "events.csv") if events else []
    series_path = seed_dir / "series.csv"
    # one row per column, so each series is a contiguous row of one array
    data = np.array(_read_csv(series_path, microsim.SERIES_CSV), dtype=float)
    series = dict(zip(microsim.SERIES_COLUMNS, data))
    path = seed_dir / "metrics.json"
    metrics = network.read_json(dict, path, "")
    # the keys other than summary are a report, not read back
    metrics = {k: v for k, v in metrics.items() if k == "summary"}
    try:
        summary = network.from_json(_RunMetrics, metrics).summary
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    dt = float(series["t_s"][1] - series["t_s"][0]) if len(series["t_s"]) > 1 else 1.0
    if dt <= 0:
        raise ValueError(f"{series_path}: field 't_s' must increase")
    return microsim.RunResult(events=log, series=series, vehicles={}, dt_sim=dt, summary=summary)


def _seed_dirs(runs) -> list[Path]:
    """The ``seed_*`` run directories under ``runs``, in name order."""
    found = sorted(Path(runs).glob("seed_*"))
    if not found:
        raise ValueError(f"no seed_* directories under {runs}")
    return found


def cmd_micro_run(args):
    net = network.load_network(args.net)
    sc = microsim.ScenarioConfig.load(args.config)
    seeds = _parse_list(args.seeds, "--seeds")
    # measure_nfd's window rule, checked before anything is simulated
    microsim.whole_steps(args.nfd_window, sc.dt_sim, "NFD window", "micro step")
    out = Path(args.out)
    workers = min(args.jobs, len(seeds))  # the pool starts all its workers at once
    if workers > 1:
        import concurrent.futures  # only this branch pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futs = {ex.submit(_run_one_seed, net, sc, s, out, args.nfd_window): s for s in seeds}
            for fut in concurrent.futures.as_completed(futs):
                fut.result()
    else:
        for s in seeds:
            _run_one_seed(net, sc, s, out, args.nfd_window)
    write_meta(out, args.argv)
    print(f"wrote {len(seeds)} replications under {out}")
    return 0


# ---------------------------------------------------------------- theory


ENVELOPES_CSV = microsim.Table(
    ("v_c", "K", "Vmax_formula", "Vmin_formula", "Vmax_brute", "Vmin_brute"), ("float",) * 6
)


def cmd_theory_sweep(args):
    out = Path(args.out)
    vcs = _parse_list(args.vc, "--vc", float)
    bad = [vc for vc in vcs if not 0 < vc <= args.vf]
    if bad:
        raise ValueError(f"--vc: {bad[0]:g} is outside (0, --vf] = (0, {args.vf:g}]")
    Ks = np.round(np.arange(0.0, args.kj + args.k_step / 2, args.k_step), 10)
    report = {}
    rows = []
    cols = ("K", "v_max", "v_min", "v_max_brute", "v_min_brute")
    for vc in vcs:
        p = bintheory.BinParams(args.vf, vc, args.kj)
        sweep = bintheory.envelope_sweep(p, Ks, args.brute_step)
        rows += ((vc, *row) for row in zip(*(sweep[c].tolist() for c in cols)))
        dev = max(
            float(np.abs(sweep["v_max"] - sweep["v_max_brute"]).max()),
            float(np.abs(sweep["v_min"] - sweep["v_min_brute"]).max()),
        )
        report[str(vc)] = {
            "critical_density": bintheory.critical_density(p),
            "max_abs_dev_vs_brute": dev,
            "max_branch_discontinuity": bintheory.branch_discontinuity(p),
            "unstable_area": bintheory.unstable_area(p),
        }
    write_csv(out / "envelopes.csv", ENVELOPES_CSV, rows)
    write_json(out / "brute_check.json", report)
    write_meta(out, args.argv)
    print(f"wrote {out}/envelopes.csv ({len(rows)} rows) and brute_check.json")
    return 0


# ------------------------------------------------------------ estimators


def cmd_estimators_fit(args):
    logs = (load_events_csv(d / "events.csv") for d in _seed_dirs(args.runs))
    obs = calibration.extract_occupancy_distance(logs, trend=args.trend, occupancy_ref=args.ref)
    if args.kind == "exp-distance":
        model, diag = calibration.fit_distance_curve(obs)
    else:
        model, diag = calibration.fit_estimator(obs, args.kind)
    write_json(args.out, {"kind": model.kind, "params": model.params, "diagnostics": diag,
                          "filter": f"{args.trend}+{args.ref}"})
    print(f"wrote {args.out}: {model.kind} {model.params}")
    return 0


# ---------------------------------------------------------------- macro


# accumulations at the end of each step (with t), then the step's flows
MACRO_RUN_COLUMNS = ("t", "n_m_on", "n_m_off", "n_m_pass", "n_c", "n_on", "n_off", "v", "O_on",
                     *macromodel.StepFlows._fields)
MACRO_RUN_CSV = microsim.Table(MACRO_RUN_COLUMNS, ("float",) * len(MACRO_RUN_COLUMNS))


def _baseline_macro_run(args, sc) -> macromodel.MacroTrajectories:
    return scenarios.baseline_macro_run(
        calibration.CalibrationReport.load(args.calibration),
        network.load_network(args.net),
        sc,
        args.dt_macro / 3600.0,
    )


def _horizon_steps(args, sc) -> int:
    """The scenario horizon in ``--dt-macro`` steps, as ``macro_demand`` counts them."""
    try:
        return microsim.whole_steps(sc.horizon * 3600.0, args.dt_macro, "scenario horizon",
                                    "macro step")
    except ValueError as e:
        raise ValueError(f"scenario {args.config}: field 'horizon': {e}") from None


def cmd_macro_run(args):
    sc = microsim.ScenarioConfig.load(args.config)
    _horizon_steps(args, sc)
    traj = _baseline_macro_run(args, sc)
    # accumulation series start with the t=0 value, flow series with step 1
    series = [getattr(traj, name).tolist() for name in MACRO_RUN_COLUMNS]
    write_csv(args.out, MACRO_RUN_CSV, zip(*(x[len(x) - traj.n_steps :] for x in series)))
    print(f"wrote {args.out} ({traj.n_steps} steps)")
    return 0


# ------------------------------------------------------------- calibrate


def cmd_calibrate(args):
    results = (load_run_dir(d) for d in _seed_dirs(args.runs))
    report = calibration.calibrate(
        results, nfd_window_s=args.nfd_window, trend=args.trend, occupancy_ref=args.ref
    )
    report.save(args.out)
    print(
        f"wrote {args.out}: nfd=({report.nfd.v0:.2f},{report.nfd.n0:.2f},{report.nfd.w:.2f}) "
        f"l_m=({report.l_m_on:.3f},{report.l_m_off:.3f},{report.l_m_pass:.3f}) "
        f"dist={report.distance_model.params}"
    )
    return 0


# -------------------------------------------------------------- validate


def cmd_validate(args):
    # validation compares series only, so the event logs are not read
    dirs = _seed_dirs(args.runs)
    results = (load_run_dir(d, events=False) for d in dirs)
    try:
        micro = calibration.micro_series_on_macro_grid(results, args.dt_macro)
    except calibration.ReplicationMismatch as e:
        raise ValueError(f"{dirs[e.index]}: {e} ({dirs[0]})") from None
    sc = microsim.ScenarioConfig.load(args.config)
    steps = _horizon_steps(args, sc)
    if steps != micro["v"].shape[1]:
        raise ValueError(f"scenario {args.config}: field 'horizon' {sc.horizon:g} hr is {steps} "
                         f"macro steps, but the runs in {dirs[0]} have {micro['v'].shape[1]}")
    metrics = calibration.validate(_baseline_macro_run(args, sc), micro)
    write_json(args.out, metrics)
    print(json.dumps(metrics, indent=1, sort_keys=True))
    return 0


# ------------------------------------------------------------------ mpc


def _mpc_setup(args, priced: bool):
    """The network, scenario, plant seeds, MPC settings and macro parameters
    of ``mpc run`` and ``compare``, each input file read once. With ``priced``
    an MPC time grid that does not tile the plant's run (the macro step must
    be whole micro steps and the control interval must divide the scenario
    horizon) is rejected before anything runs, and so is an uncontrolled
    facility's scenario price outside the box, which the solver would keep."""
    controlled = _parse_list(args.controlled, "--controlled", str)
    _check_choices(controlled, "--controlled", "facility", mpc.FACILITIES)
    net = network.load_network(args.net)
    sc = microsim.ScenarioConfig.load(args.config)
    report = calibration.CalibrationReport.load(args.calibration)
    seeds = _parse_list(args.seeds, "--seeds")
    dt = args.dt_macro / 3600.0
    cfg = mpc.MpcConfig(
        control_interval=args.control_interval,
        n_intervals=args.intervals,
        n_starts=args.starts,
        budget=args.budget,
        controlled=tuple(controlled),
        tau_min=args.tau_min,
        tau_max=args.tau_max,
        tau_gap=args.tau_gap,
    )
    cfg.steps_per_interval(dt)  # raises unless the macro step divides the control interval
    if priced:
        microsim.whole_steps(dt * 3600.0, sc.dt_sim, "macro step", "micro step")
        cfg.intervals_in(sc.horizon)
        for fac in mpc.FACILITIES:
            tau = getattr(sc, f"tau_{fac}")
            if fac not in cfg.controlled and not cfg.tau_min - 1e-9 <= tau <= cfg.tau_max + 1e-9:
                raise ValueError(f"scenario {args.config}: field 'tau_{fac}' {tau:g} is outside "
                                 f"[--tau-min, --tau-max] = [{cfg.tau_min:g}, {cfg.tau_max:g}] "
                                 f"of the uncontrolled facility {fac!r}")
    params = scenarios.macro_params_from_calibration(report, net, sc, dt)
    return net, sc, seeds, cfg, params


MODES = ("no-price", "mpc", "full-dynamic", "full-static")


def run_mode(mode, net, sc, params, cfg, seed, prices=None):
    """One plant replication under one pricing mode. Returns the four
    time-related metrics of the comparison and, in "mpc" mode, the loop's
    iterations (else None). The other modes apply the (tau_on, tau_off) rows
    of ``prices`` in turn, each for an equal share of the horizon; "no-price"
    applies the scenario's own prices as its one row."""
    sim = microsim.Simulation(net, sc, seed)
    plant = mpc.MicroPlant(sim, params)
    iterations = None
    if mode == "mpc":
        park, pas = scenarios.macro_demand(sc, params.dt)
        iterations = mpc.mpc_loop(plant, params, cfg, park, pas, (sc.tau_on, sc.tau_off))
    else:
        if mode == "no-price":
            prices = [(sc.tau_on, sc.tau_off)]
        for row in prices:
            plant.advance(row, sc.horizon / len(prices))
    return microsim.time_metrics(sim.series(), sim.dt, sim.l_off, sim.v_off_f), iterations


# mpc_log.csv: a row per control interval, then each seed's total row, which
# leaves the prices and the evaluations empty. So those three columns are
# text: an interval row gives its prices formatted as a float column would.
MPC_LOG_CSV = microsim.Table(("seed", "t_hr", "tau_on", "tau_off", "objective", "evaluations"),
                             ("int", "float", "str", "str", "float", "str"))
PREDICTION_CSV = microsim.Table(("seed", "t_hr", "step", "predicted_n_c", "realized_n_c"),
                                ("int", "float", "int", "float", "float"))


def cmd_mpc_run(args):
    net, sc, seeds, cfg, params = _mpc_setup(args, priced=True)
    out = Path(args.out)
    log_rows, pred_rows = [], []
    for seed in seeds:
        m, iterations = run_mode("mpc", net, sc, params, cfg, seed)
        for it in iterations:
            tau_on, tau_off = (microsim.FLOAT % tau for tau in it.applied)
            log_rows.append(
                (seed, it.t_hr, tau_on, tau_off, it.predicted_objective, it.evaluations)
            )
            for j, (p, r) in enumerate(zip(it.predicted_n_c.tolist(), it.realized_n_c.tolist())):
                pred_rows.append((seed, it.t_hr, j, p, r))
        log_rows.append((seed, sc.horizon, "", "", m["ineffective_cruising_veh_hr"], ""))
    write_csv(out / "mpc_log.csv", MPC_LOG_CSV, log_rows)
    write_csv(out / "prediction_vs_plant.csv", PREDICTION_CSV, pred_rows)
    write_meta(out, args.argv)
    print(f"wrote {out}/mpc_log.csv and prediction_vs_plant.csv")
    return 0


COMPARISON_CSV = microsim.Table(
    ("mode", "seed", "deadweight_veh_hr", "on_street_cruising_veh_hr",
     "ineffective_cruising_veh_hr", "total_travel_time_veh_hr"),
    ("str", "int", "float", "float", "float", "float"),
)


def cmd_compare(args):
    modes = _parse_list(args.modes, "--modes", str)
    _check_choices(modes, "--modes", "mode", MODES)
    net, sc, seeds, cfg, params = _mpc_setup(args, priced=any(m != "no-price" for m in modes))
    rows = []
    for mode in modes:
        prices = None
        if mode.startswith("full-"):
            # the full-horizon problem does not depend on the plant seed
            park, pas = scenarios.macro_demand(sc, params.dt)
            prices = mpc.solve_full_horizon(
                park, pas, params, cfg, (sc.tau_on, sc.tau_off),
                mode=mode.removeprefix("full-"),
                initial_state=scenarios.macro_initial_state(sc, params.N_on),
            ).prices
        for seed in seeds:
            m, _ = run_mode(mode, net, sc, params, cfg, seed, prices)
            rows.append((mode, seed, *(m[c] for c in COMPARISON_CSV.columns[2:])))
    out = Path(args.out)
    write_csv(out / "comparison.csv", COMPARISON_CSV, rows)
    write_meta(out, args.argv)
    print(f"wrote {out}/comparison.csv ({len(rows)} rows)")
    return 0


# ------------------------------------------------------------------ main


class _Flag(NamedTuple):
    kwargs: dict  # argparse's keywords
    domain: _Domain | None = None
    option: str | None = None  # when it is not --<dest> with - for _


# Every flag of every command, keyed by argparse dest. main checks each given
# value against its domain before the command reads or writes anything; rules
# between flags, or between a flag and a file, stay in the commands.
FLAGS = {
    **dict.fromkeys(("net", "config", "calibration", "out"), _Flag({"required": True})),
    "runs": _Flag({"required": True, "help": "directory with seed_* runs"}),
    "rows": _Flag({"type": int}, _at_least(2)),
    "cols": _Flag({"type": int}, _at_least(2)),
    "link_length": _Flag({"type": float, "help": "km"}, _POSITIVE),
    "v_f": _Flag({"type": float, "metavar": "VF"}, _POSITIVE, "--vf"),
    "k_j": _Flag({"type": float, "metavar": "KJ"}, _POSITIVE, "--kj"),
    "total_spots": _Flag({"type": int}, _at_least(0)),
    "upper_share": _Flag({"type": float}, _Domain("must lie in [0, 1]", lambda x: 0 <= x <= 1)),
    "supply_fraction": _Flag({"type": float},
                             _Domain("must lie in (0, 1]", lambda x: 0 < x <= 1)),
    "lot_entry": _Flag({}),
    "lot_capacity": _Flag({"type": int}, _at_least(0)),
    "lot_circuit": _Flag({"type": float}, _POSITIVE),
    "lot_speed": _Flag({"type": float}, _POSITIVE),
    "seeds": _Flag({"default": "0,1,2,3,4,5,6,7,8,9"}),
    "jobs": _Flag({"type": int, "default": 1}, _at_least(1)),
    "nfd_window": _Flag({"type": float, "default": 60.0, "help": "s"}, _POSITIVE),
    "vf": _Flag({"type": float, "default": 50.0}, _POSITIVE),
    "kj": _Flag({"type": float, "default": 100.0}, _POSITIVE),
    "vc": _Flag({"default": "10,20,30,40"}),
    "k_step": _Flag({"type": float, "default": 0.1}, _POSITIVE),
    "brute_step": _Flag({"type": float, "default": 0.01}, _POSITIVE),
    "kind": _Flag({"default": "exp-distance", "choices": list(estimators.KINDS)}),
    "trend": _Flag({"default": "increasing", "choices": ["increasing", "decreasing", "both"]}),
    "ref": _Flag({"default": "init", "choices": ["init", "avg"]}),
    "dt_macro": _Flag({"type": float, "default": 10.0, "help": "s"}, _POSITIVE),
    "modes": _Flag({"default": ",".join(MODES)}),
    "control_interval": _Flag({"type": float, "default": 0.25, "help": "hr"}, _POSITIVE),
    "intervals": _Flag({"type": int, "default": 2}, _at_least(1)),
    "starts": _Flag({"type": int, "default": 8,
                     "help": "starts per solve: the prices in force, every price at "
                             "--tau-min, every price at --tau-max, then random ones up to "
                             "this count"}, _at_least(3)),
    "budget": _Flag({"type": int, "default": 400}, _at_least(1)),
    "controlled": _Flag({"default": "on"}),
    "tau_min": _Flag({"type": float, "default": 0.0}, _FINITE),
    "tau_max": _Flag({"type": float, "default": 10.0}, _FINITE),
    "tau_gap": _Flag({"type": float, "default": 3.0}, _FINITE),
}


def _option(dest: str) -> str:
    return FLAGS[dest].option or "--" + dest.replace("_", "-")


_MPC_FLAGS = ("net", "config", "calibration", "seeds", "out", "control_interval", "intervals",
              "dt_macro", "starts", "budget", "controlled", "tau_min", "tau_max", "tau_gap")

# (words, help, function, flags in --help order) of every command
COMMANDS = (
    (("net", "build"), "build a grid network file", cmd_net_build,
     ("rows", "cols", "link_length", "v_f", "k_j", "total_spots", "upper_share", "supply_fraction",
      "lot_entry", "lot_capacity", "lot_circuit", "lot_speed", "out")),
    (("net", "check"), "validate a network file", cmd_net_check, ("net",)),
    (("micro", "run"), "run replications", cmd_micro_run,
     ("net", "config", "seeds", "out", "jobs", "nfd_window")),
    (("theory", "sweep"), "envelope sweep with brute-force check", cmd_theory_sweep,
     ("vf", "kj", "vc", "k_step", "brute_step", "out")),
    (("estimators", "fit"), "fit an estimator to run output", cmd_estimators_fit,
     ("runs", "kind", "trend", "ref", "out")),
    (("macro", "run"), "simulate the macro model", cmd_macro_run,
     ("net", "config", "calibration", "dt_macro", "out")),
    (("calibrate",), "fit macro inputs from micro runs", cmd_calibrate,
     ("runs", "nfd_window", "trend", "ref", "out")),
    (("validate",), "macro-vs-micro consistency metrics", cmd_validate,
     ("net", "config", "calibration", "runs", "dt_macro", "out")),
    (("mpc", "run"), "MPC on the micro plant", cmd_mpc_run, _MPC_FLAGS),
    (("compare",), "pricing-mode comparison on same seeds", cmd_compare, ("modes", *_MPC_FLAGS)),
)
# the help of each word that groups commands
GROUPS = {"net": "network tools", "micro": "micro-simulation", "theory": "two-bin NFD theory",
          "estimators": "distance-to-park estimators", "macro": "macro model",
          "mpc": "closed-loop pricing"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="parkdyn", description=__doc__)
    subs = {(): ap.add_subparsers(dest="command", required=True)}
    for words, help, func, dests in COMMANDS:
        group = words[:-1]
        if group not in subs:
            g = subs[()].add_parser(group[0], help=GROUPS[group[0]])
            subs[group] = g.add_subparsers(dest="subcommand", required=True)
        p = subs[group].add_parser(words[-1], help=help)
        for dest in dests:
            p.add_argument(_option(dest), dest=dest, **FLAGS[dest].kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)  # for run_meta.json
    try:
        for dest, (_, domain, _) in FLAGS.items():
            value = getattr(args, dest, None)
            if domain and value is not None and not domain.holds(value):
                raise ValueError(f"{_option(dest)}: {domain.rule}, got {value:g}")
        return args.func(args)
    except (ValueError, OSError, macromodel.ConservationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
