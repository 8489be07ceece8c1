#!/usr/bin/env python3
"""Parking-guidance comparison (none / local / regional / joint) plus a
compliance sweep for the regional part, on the sparse-supply desk grid."""

import argparse
from pathlib import Path

import numpy as np

from parkdyn.cli import write_csv, write_json
from parkdyn.microsim import (
    GuidanceConfig, Simulation, Table, mean_network_speed, performance_metrics,
)
from parkdyn.scenarios import desk_network, validation_scenario

GUIDANCE_METRICS_CSV = Table(
    ("mode", "compliance", "mean_distance_to_park", "completion_rate", "mean_speed"),
    ("str", "float", "float", "float", "float"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/guidance")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--compliances", default="0,0.25,0.5,0.75,1.0")
    args = ap.parse_args(argv)

    net = desk_network(
        rows=8, cols=8, total_spots=300, lot_capacity=30, upper_share=0.3, supply_fraction=0.3
    )
    modes = {
        "none": GuidanceConfig(),
        "local": GuidanceConfig(local_guidance=True),
        "regional": GuidanceConfig(regional_guidance=True, compliance=1.0),
        "joint": GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=1.0),
    }
    rows = []

    def cell(name, guid):
        dtps, compl, speeds = [], [], []
        for seed in range(args.seeds):
            sc = validation_scenario(
                parker_count=430, passer_count=2000, captive_spots=110, guidance=guid
            )
            res = Simulation(net, sc, seed).run()
            m = performance_metrics(res)
            dtps.append(m["mean_distance_to_park"])
            compl.append(m["completion_rate"])
            speeds.append(mean_network_speed(res))
        rows.append(
            (name, guid.compliance, float(np.mean(dtps)), float(np.mean(compl)), float(np.mean(speeds)))
        )

    for name, guid in modes.items():
        cell(name, guid)
    for c in (float(x) for x in args.compliances.split(",")):
        cell("joint", GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=c))

    out = Path(args.out)
    write_csv(out / "guidance_metrics.csv", GUIDANCE_METRICS_CSV, rows)
    write_json(out / "config.json", vars(args))
    print(f"wrote {out}/guidance_metrics.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
