#!/usr/bin/env python3
"""Demand level x cruising speed grid: per-cell NFD samples and network
performance metrics (the passing-demand and cruising-speed comparison)."""

import argparse
from pathlib import Path

import numpy as np

from parkdyn.cli import write_csv, write_json
from parkdyn.microsim import (
    NFD_CSV, Simulation, Table, measure_nfd, mean_network_speed, performance_metrics,
)
from parkdyn.scenarios import desk_network, validation_scenario

# each cell's and seed's measure_nfd rows
NFD_GRID_CSV = Table(("passers", "v_c", "seed", *NFD_CSV.columns),
                     ("int", "float", "int", *NFD_CSV.kinds))
METRICS_GRID_CSV = Table(
    ("passers", "v_c", "mean_speed", "avg_delay_s", "avg_distance_km", "mean_distance_to_park",
     "completion_rate"),
    ("int", "float", "float", "float", "float", "float", "float"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/demand_speed_grid")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--demands", default="1400,2000,2600")
    ap.add_argument("--cruise-speeds", default="10,30,50")
    ap.add_argument("--parkers", type=int, default=400)
    ap.add_argument("--captive", type=int, default=130)
    args = ap.parse_args(argv)

    net = desk_network()
    out = Path(args.out)
    nfd_rows, metric_rows = [], []
    for passers in (int(x) for x in args.demands.split(",")):
        for vc in (float(x) for x in args.cruise_speeds.split(",")):
            speeds, delays, dists, dtps, compl = [], [], [], [], []
            for seed in range(args.seeds):
                sc = validation_scenario(
                    parker_count=args.parkers,
                    passer_count=passers,
                    captive_spots=args.captive,
                    cruise_speed=vc,
                )
                res = Simulation(net, sc, seed).run()
                length = res.summary.network_length
                for t, K, Q, V in measure_nfd(res.series, length, 60.0, res.dt_sim):
                    nfd_rows.append((passers, vc, seed, t, K, Q, V))
                m = performance_metrics(res)
                speeds.append(mean_network_speed(res))
                delays.append(m["avg_delay_s"])
                dists.append(m["avg_distance_km"])
                dtps.append(m["mean_distance_to_park"])
                compl.append(m["completion_rate"])
            metric_rows.append(
                (
                    passers,
                    vc,
                    float(np.mean(speeds)),
                    float(np.mean(delays)),
                    float(np.mean(dists)),
                    float(np.mean(dtps)),
                    float(np.mean(compl)),
                )
            )
    write_csv(out / "nfd_grid.csv", NFD_GRID_CSV, nfd_rows)
    write_csv(out / "metrics_grid.csv", METRICS_GRID_CSV, metric_rows)
    write_json(out / "config.json", vars(args))
    print(f"wrote {out}/nfd_grid.csv and metrics_grid.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
