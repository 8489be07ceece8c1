"""Command-line orchestration: build networks, run replications, sweep the
two-bin theory, calibrate, validate, and compare pricing policies.

Every command rewrites its outputs byte-identically for the same inputs;
wall-clock metadata goes only to a run_meta.json side file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bintheory, calibration, estimators, macromodel, mpc, network, microsim, scenarios

FMT = "{:.10g}"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FMT.format(x)
    return str(x)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def write_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_meta(out_dir, argv):
    write_json(Path(out_dir) / "run_meta.json", {"argv": argv, "written_at": time.time()})


def _parse_list(text: str, flag: str, kind=int) -> list:
    """The comma- or space-separated ``kind`` (int or float) values of ``flag``."""
    try:
        values = [kind(s) for s in text.replace(",", " ").split()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag}: {text!r} is not a list of {what}") from None
    if not values:
        raise ValueError(f"{flag}: no {flag[2:]} given")
    return values


# ------------------------------------------------------------------ net


def cmd_net_build(args):
    for flag, value in (("--upper-share", args.upper_share),
                        ("--supply-fraction", args.supply_fraction)):
        if value is not None and args.total_spots is None:
            raise ValueError(f"{flag}: applies only with --total-spots")
    if args.upper_share is not None and not 0 <= args.upper_share <= 1:
        raise ValueError(f"--upper-share: must lie in [0, 1], got {args.upper_share:g}")
    supply = 1.0 if args.supply_fraction is None else args.supply_fraction
    if not 0 < supply <= 1:
        raise ValueError(f"--supply-fraction: must lie in (0, 1], got {supply:g}")
    net = scenarios.desk_network(
        args.rows, args.cols, args.link_length, args.vf, args.kj,
        total_spots=args.total_spots, lot_capacity=args.lot_capacity,
        lot_circuit=args.lot_circuit, lot_speed=args.lot_speed, upper_share=args.upper_share,
        supply_fraction=supply, spots_per_link=args.spots_per_link,
        spot_spacing=args.spot_spacing, lot_entry=args.lot_entry,
    )
    network.save_network(net, args.out)
    print(f"wrote {args.out}: {len(net.nodes)} nodes, {len(net.links)} links, "
          f"{net.total_parking_capacity} spots, {len(net.lots)} lots")
    return 0


def cmd_net_check(args):
    try:
        net = network.load_network(args.net)
    except network.NetworkFormatError as e:
        print(f"INVALID: {e}", file=sys.stderr)
        return 1
    ok = net.is_strongly_connected()
    print(
        f"{args.net}: {len(net.nodes)} nodes, {len(net.links)} links, "
        f"L={net.total_length:.3f} km, {net.total_parking_capacity} on-street spots, "
        f"{len(net.lots)} lots, regions={list(net.regions())}, "
        f"strongly_connected={ok}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- micro


def _run_one_seed(net, sc, seed, out_dir, nfd_window):
    res = microsim.Simulation(net, sc, seed).run()
    seed_dir = Path(out_dir) / f"seed_{seed}"
    write_events_csv(seed_dir / "events.csv", res.events)
    rows = microsim.measure_nfd(res.series, res.network_length, nfd_window, res.dt_sim)
    write_csv(seed_dir / "nfd.csv", ["t_s", "K", "Q", "V"], rows)
    write_series_csv(seed_dir / "series.csv", res)
    metrics = microsim.performance_metrics(res)
    metrics["summary"] = res.summary
    times = microsim.time_metrics(res.series, res.dt_sim, res.l_off, res.v_off_f)
    metrics["ineffective_cruising_veh_hr"] = times["ineffective_cruising_veh_hr"]
    write_json(seed_dir / "metrics.json", metrics)
    return res.summary


def _read_csv(path, columns, types) -> list[list]:
    """The ``columns`` of a CSV file with a header line, each converted by its
    entry in ``types``. A converter runs once per distinct text, and equal
    texts share one converted object, so a value repeated across rows (a
    family name, a link id, a time) is held once. On any fault the file is
    read again row by row, and the first fault in file order (line, then
    field) is raised as a ValueError naming the file, the line and the field;
    a missing column names the file and the column."""
    try:
        # an undecodable byte becomes a lone surrogate, which float, int and _utf8 reject
        with open(path, newline="", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            picks = [header.index(c) for c in columns]
            rows = list(reader)
        if any(len(row) < len(header) for row in rows):
            raise ValueError(f"{path}: short row")
        memos = {t: {} for t in types}
        out = []
        for i, t in zip(picks, types):
            memo = memos[t]
            for text in {row[i] for row in rows}.difference(memo):
                memo[text] = t(text)
            out.append([memo[row[i]] for row in rows])
        return out
    except (ValueError, csv.Error):
        _raise_first_fault(path, columns, types)
        raise  # reached only if the file changed between the two reads


def _raise_first_fault(path, columns, types):
    """Raise the ValueError for the first fault of a CSV file that
    ``_read_csv`` rejected: a missing column, or else, scanning line by line,
    a short row, a value that does not convert (a byte that is not UTF-8
    included), or a line the csv module rejects (named by line alone)."""
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: missing column {missing[0]!r}")
            picks = [(c, t, header.index(c)) for c, t in zip(columns, types)]
            for line, row in enumerate(reader, start=2):
                if len(row) < len(header):
                    raise ValueError(f"{path} line {line}: field {header[len(row)]!r} missing")
                for c, t, i in picks:
                    try:
                        t(row[i])
                    except ValueError:
                        bad = f"{path} line {line}: field {c!r}: bad value {row[i]!r}"
                        raise ValueError(bad) from None
        except csv.Error as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from None


def _utf8(text: str) -> str:
    text.encode()  # UnicodeEncodeError, a ValueError, on an escaped non-UTF-8 byte
    return text


def write_events_csv(path, events):
    write_csv(path, microsim.Event._fields, events)


def load_events_csv(path) -> list[microsim.Event]:
    types = (int, float, _utf8, _utf8, _utf8, float, float, float)
    return list(map(microsim.Event, *_read_csv(path, microsim.Event._fields, types)))


def write_series_csv(path, res: microsim.RunResult):
    rows = zip(*(res.series[c] for c in microsim.SERIES_COLUMNS))
    write_csv(path, list(microsim.SERIES_COLUMNS), rows)


def load_run_dir(seed_dir, events=True) -> microsim.RunResult:
    """Rebuild the pieces of a RunResult that calibration needs. With
    ``events=False`` the event log is not read and ``events`` is empty."""
    seed_dir = Path(seed_dir)
    log = load_events_csv(seed_dir / "events.csv") if events else []
    cols = microsim.SERIES_COLUMNS
    series_path = seed_dir / "series.csv"
    # one row per column, so each series is a contiguous row of one array
    data = np.array(_read_csv(series_path, cols, [float] * len(cols)), dtype=float)
    bad = np.argwhere(~np.isfinite(data.T))
    if len(bad):
        line, col = bad[0]
        raise ValueError(f"{series_path} line {line + 2}: field {cols[col]!r} must be finite")
    series = dict(zip(cols, data))
    path = seed_dir / "metrics.json"
    with open(path) as fh:
        try:
            metrics = json.load(fh)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    summary = metrics.get("summary") if isinstance(metrics, dict) else None
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: missing field 'summary'")
    for key in ("seed", "network_length", "l_off", "v_off_f", "on_street_capacity"):
        if key not in summary:
            raise ValueError(f"{path}: missing field 'summary.{key}'")
        if isinstance(summary[key], bool) or not isinstance(summary[key], (int, float)):
            raise ValueError(f"{path}: field 'summary.{key}' must be a number")
    for key in ("network_length", "v_off_f"):
        if not 0 < summary[key] < math.inf:
            raise ValueError(f"{path}: field 'summary.{key}' must be > 0 and finite")
    if type(summary["on_street_capacity"]) is not int or summary["on_street_capacity"] < 0:
        raise ValueError(f"{path}: field 'summary.on_street_capacity' must be an integer >= 0")
    dt = float(series["t_s"][1] - series["t_s"][0]) if len(series["t_s"]) > 1 else 1.0
    if dt <= 0:
        raise ValueError(f"{series_path}: field 't_s' must increase")
    return microsim.RunResult(
        events=log,
        series=series,
        vehicles=[],
        dt_sim=dt,
        network_length=summary["network_length"],
        l_off=summary["l_off"],
        v_off_f=summary["v_off_f"],
        summary=summary,
    )


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
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            futs = {ex.submit(_run_one_seed, net, sc, s, out, args.nfd_window): s for s in seeds}
            for fut in concurrent.futures.as_completed(futs):
                fut.result()
    else:
        for s in seeds:
            _run_one_seed(net, sc, s, out, args.nfd_window)
    write_meta(out, sys.argv[1:])
    print(f"wrote {len(seeds)} replications under {out}")
    return 0


# ---------------------------------------------------------------- theory


def cmd_theory_sweep(args):
    out = Path(args.out)
    vcs = _parse_list(args.vc, "--vc", float)
    for flag, value in (("--vf", args.vf), ("--kj", args.kj), ("--k-step", args.k_step),
                        ("--brute-step", args.brute_step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag}: must be > 0 and finite, got {value:g}")
    bad = [vc for vc in vcs if not 0 < vc <= args.vf]
    if bad:
        raise ValueError(f"--vc: {bad[0]:g} is outside (0, --vf] = (0, {args.vf:g}]")
    Ks = np.round(np.arange(0.0, args.kj + args.k_step / 2, args.k_step), 10)
    report = {}
    rows = []
    for vc in vcs:
        p = bintheory.BinParams(args.vf, vc, args.kj)
        sweep = bintheory.envelope_sweep(p, Ks, args.brute_step)
        for i, K in enumerate(sweep["K"]):
            rows.append(
                (
                    vc,
                    K,
                    sweep["v_max"][i],
                    sweep["v_min"][i],
                    sweep["v_max_brute"][i],
                    sweep["v_min_brute"][i],
                )
            )
        kc = bintheory.critical_density(p)
        dev = max(
            float(np.abs(sweep["v_max"] - sweep["v_max_brute"]).max()),
            float(np.abs(sweep["v_min"] - sweep["v_min_brute"]).max()),
        )
        cont = []
        for x in (kc / 4, 3 * kc / 4, kc, kc / 2, args.kj / 2, (kc + args.kj) / 2):
            d = 1e-11
            a = bintheory.envelope_with_cruising(max(0.0, x - d), p)
            b = bintheory.envelope_with_cruising(min(args.kj, x + d), p)
            cont.append(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
        report[str(vc)] = {
            "critical_density": kc,
            "max_abs_dev_vs_brute": dev,
            "max_branch_discontinuity": max(cont),
            "unstable_area": bintheory.unstable_area(p, True),
        }
    write_csv(
        out / "envelopes.csv",
        ["v_c", "K", "Vmax_formula", "Vmin_formula", "Vmax_brute", "Vmin_brute"],
        rows,
    )
    write_json(out / "brute_check.json", report)
    write_meta(out, sys.argv[1:])
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


def _baseline_macro_run(args) -> macromodel.MacroTrajectories:
    return scenarios.baseline_macro_run(
        calibration.CalibrationReport.load(args.calibration),
        network.load_network(args.net),
        microsim.ScenarioConfig.load(args.config),
        args.dt_macro / 3600.0,
    )


def cmd_macro_run(args):
    traj = _baseline_macro_run(args)
    # accumulation series start with the t=0 value, flow series with step 1
    series = [getattr(traj, name) for name in MACRO_RUN_COLUMNS]
    write_csv(args.out, MACRO_RUN_COLUMNS, zip(*(x[len(x) - traj.n_steps :] for x in series)))
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
    metrics = calibration.validate(_baseline_macro_run(args), micro)
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
    facility's scenario price outside the box, which the solver would keep.
    A price-box flag that is not finite is rejected before any file is read."""
    for flag, value in (("--tau-min", args.tau_min), ("--tau-max", args.tau_max),
                        ("--tau-gap", args.tau_gap)):
        if not math.isfinite(value):
            raise ValueError(f"{flag}: must be finite, got {value:g}")
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
        controlled=tuple(args.controlled.split(",")),
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
    iterations (else None). The full-horizon modes apply the (tau_on,
    tau_off) rows of ``prices`` in turn, each for an equal share of the horizon."""
    sim = microsim.Simulation(net, sc, seed)
    iterations = None
    if mode == "no-price":
        sim.run()
    else:
        plant = mpc.MicroPlant(sim, params)
        if mode == "mpc":
            park, pas = scenarios.macro_demand(sc, params.dt)
            iterations = mpc.mpc_loop(plant, params, cfg, park, pas, (sc.tau_on, sc.tau_off))
        else:
            for tau_on, tau_off in prices:
                plant.set_prices(tau_on, tau_off)
                plant.advance(sc.horizon / len(prices))
    return microsim.time_metrics(sim.series(), sim.dt, sim.l_off, sim.v_off_f), iterations


def cmd_mpc_run(args):
    net, sc, seeds, cfg, params = _mpc_setup(args, priced=True)
    out = Path(args.out)
    log_rows, pred_rows = [], []
    for seed in seeds:
        m, iterations = run_mode("mpc", net, sc, params, cfg, seed)
        for it in iterations:
            log_rows.append(
                (seed, it.t_hr, it.applied[0], it.applied[1], it.predicted_objective, it.evaluations)
            )
            for j, (p, r) in enumerate(zip(it.predicted_n_c, it.realized_n_c)):
                pred_rows.append((seed, it.t_hr, j, p, r))
        log_rows.append((seed, sc.horizon, "", "", m["ineffective_cruising_veh_hr"], ""))
    write_csv(
        out / "mpc_log.csv",
        ["seed", "t_hr", "tau_on", "tau_off", "objective", "evaluations"],
        log_rows,
    )
    write_csv(
        out / "prediction_vs_plant.csv",
        ["seed", "t_hr", "step", "predicted_n_c", "realized_n_c"],
        pred_rows,
    )
    write_meta(out, sys.argv[1:])
    print(f"wrote {out}/mpc_log.csv and prediction_vs_plant.csv")
    return 0


def cmd_compare(args):
    modes = args.modes.split(",")
    bad = [m for m in modes if m not in MODES]
    if bad:
        raise ValueError(f"--modes: unknown mode {bad[0]!r}, expected one of {', '.join(MODES)}")
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
            rows.append(
                (
                    mode,
                    seed,
                    m["deadweight_veh_hr"],
                    m["on_street_cruising_veh_hr"],
                    m["ineffective_cruising_veh_hr"],
                    m["total_travel_time_veh_hr"],
                )
            )
    out = Path(args.out)
    write_csv(
        out / "comparison.csv",
        ["mode", "seed", "deadweight_veh_hr", "on_street_cruising_veh_hr",
         "ineffective_cruising_veh_hr", "total_travel_time_veh_hr"],
        rows,
    )
    write_meta(out, sys.argv[1:])
    print(f"wrote {out}/comparison.csv ({len(rows)} rows)")
    return 0


# ------------------------------------------------------------------ main


def _add_mpc_flags(p):
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--out", required=True)
    p.add_argument("--control-interval", type=float, default=0.25, help="hr")
    p.add_argument("--intervals", type=int, default=2)
    p.add_argument("--dt-macro", type=float, default=10.0, help="s")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--controlled", default="on")
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--tau-gap", type=float, default=3.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="parkdyn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    net_p = sub.add_parser("net", help="network tools")
    net_sub = net_p.add_subparsers(dest="subcommand", required=True)
    b = net_sub.add_parser("build", help="build a grid network file")
    b.add_argument("--rows", type=int, default=6)
    b.add_argument("--cols", type=int, default=6)
    b.add_argument("--link-length", type=float, default=0.1, help="km")
    b.add_argument("--vf", type=float, default=50.0)
    b.add_argument("--kj", type=float, default=100.0)
    b.add_argument("--spots-per-link", type=int, default=0)
    b.add_argument("--spot-spacing", type=float, default=0.0)
    b.add_argument("--total-spots", type=int, default=None)
    b.add_argument("--upper-share", type=float, default=None)
    b.add_argument("--supply-fraction", type=float, default=None)
    b.add_argument("--lot-entry", default=None)
    b.add_argument("--lot-capacity", type=int, default=0)
    b.add_argument("--lot-circuit", type=float, default=0.3)
    b.add_argument("--lot-speed", type=float, default=15.0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_net_build)
    c = net_sub.add_parser("check", help="validate a network file")
    c.add_argument("--net", required=True)
    c.set_defaults(func=cmd_net_check)

    m = sub.add_parser("micro", help="micro-simulation")
    m_sub = m.add_subparsers(dest="subcommand", required=True)
    r = m_sub.add_parser("run", help="run replications")
    r.add_argument("--net", required=True)
    r.add_argument("--config", required=True)
    r.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    r.add_argument("--out", required=True)
    r.add_argument("--jobs", type=int, default=1)
    r.add_argument("--nfd-window", type=float, default=60.0, help="s")
    r.set_defaults(func=cmd_micro_run)

    t = sub.add_parser("theory", help="two-bin NFD theory")
    t_sub = t.add_subparsers(dest="subcommand", required=True)
    s = t_sub.add_parser("sweep", help="envelope sweep with brute-force check")
    s.add_argument("--vf", type=float, default=50.0)
    s.add_argument("--kj", type=float, default=100.0)
    s.add_argument("--vc", default="10,20,30,40")
    s.add_argument("--k-step", type=float, default=0.1)
    s.add_argument("--brute-step", type=float, default=0.01)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_theory_sweep)

    e = sub.add_parser("estimators", help="distance/time-to-park estimators")
    e_sub = e.add_subparsers(dest="subcommand", required=True)
    f = e_sub.add_parser("fit", help="fit an estimator to run output")
    f.add_argument("--runs", required=True, help="directory with seed_* runs")
    f.add_argument("--kind", default="exp-distance", choices=list(estimators.DISTANCE_KINDS))
    f.add_argument("--trend", default="increasing", choices=["increasing", "decreasing", "both"])
    f.add_argument("--ref", default="init", choices=["init", "avg"])
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_estimators_fit)

    ma = sub.add_parser("macro", help="macro model")
    ma_sub = ma.add_subparsers(dest="subcommand", required=True)
    mr = ma_sub.add_parser("run", help="simulate the macro model")
    mr.add_argument("--net", required=True)
    mr.add_argument("--config", required=True)
    mr.add_argument("--calibration", required=True)
    mr.add_argument("--dt-macro", type=float, default=10.0, help="s")
    mr.add_argument("--out", required=True)
    mr.set_defaults(func=cmd_macro_run)

    ca = sub.add_parser("calibrate", help="fit macro inputs from micro runs")
    ca.add_argument("--runs", required=True)
    ca.add_argument("--nfd-window", type=float, default=60.0)
    ca.add_argument("--trend", default="increasing", choices=["increasing", "decreasing", "both"])
    ca.add_argument("--ref", default="init", choices=["init", "avg"])
    ca.add_argument("--out", required=True)
    ca.set_defaults(func=cmd_calibrate)

    va = sub.add_parser("validate", help="macro-vs-micro consistency metrics")
    va.add_argument("--net", required=True)
    va.add_argument("--config", required=True)
    va.add_argument("--calibration", required=True)
    va.add_argument("--runs", required=True)
    va.add_argument("--dt-macro", type=float, default=10.0)
    va.add_argument("--out", required=True)
    va.set_defaults(func=cmd_validate)

    mp = sub.add_parser("mpc", help="closed-loop pricing")
    mp_sub = mp.add_subparsers(dest="subcommand", required=True)
    mpr = mp_sub.add_parser("run", help="MPC on the micro plant")
    _add_mpc_flags(mpr)
    mpr.set_defaults(func=cmd_mpc_run)

    co = sub.add_parser("compare", help="pricing-mode comparison on same seeds")
    co.add_argument("--modes", default="no-price,mpc,full-dynamic,full-static")
    _add_mpc_flags(co)
    co.set_defaults(func=cmd_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, macromodel.ConservationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
