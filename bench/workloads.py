"""The three benchmark workloads: their inputs, their CLI steps and the
plant seeds a workload seed selects.

One op is a list of ``parkdyn`` command lines, each run in a fresh Python
process. Every op of a run uses the same plant seeds, so their outputs and
exact counts must agree with each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"

# The seed whose output digests and exact counts are stored in reference.json.
REFERENCE_SEED = 0

DESK = {"network": {}, "scenario": {}}
# A10: desk grid with a doubled (slack) off-street lot and 450 parkers.
A10 = {"network": {"lot_capacity": 100}, "scenario": {"parker_count": 450}}
# The ROADMAP stress case: 12x12 grid at four times the desk demand and supply.
STRESS = {
    "network": {"rows": 12, "cols": 12, "total_spots": 1200, "lot_capacity": 200},
    "scenario": {"parker_count": 1600, "passer_count": 11200, "captive_spots": 520},
}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict
    seeds_per_op: int

    def plant_seeds(self, seed: int) -> list[int]:
        """Plant seeds of every op under workload seed ``seed``; the seed
        sets are disjoint across workload seeds."""
        n = self.seeds_per_op
        return list(range(seed * n, seed * n + n))

    def steps(self, inputs: Path, out: Path, seeds: list[int]) -> list[list[str]]:
        net, config = str(inputs / "network.json"), str(inputs / "scenario.json")
        seed_list = ",".join(map(str, seeds))
        if self.name == "pricing-compare":
            return [[
                "compare", "--modes", "no-price,mpc,full-dynamic,full-static",
                "--net", net, "--config", config,
                "--calibration", str(DATA_DIR / "a10_calibration.json"),
                "--seeds", seed_list, "--starts", "4", "--budget", "80",
                "--out", str(out / "compare"),
            ]]
        runs = str(out / "runs")
        micro = ["micro", "run", "--net", net, "--config", config, "--seeds", seed_list,
                 "--out", runs, "--jobs", "1"]
        if self.name == "stress-grid":
            return [micro]
        calibration = str(out / "calibration.json")
        return [
            micro,
            ["calibrate", "--runs", runs, "--out", calibration],
            ["validate", "--net", net, "--config", config, "--calibration", calibration,
             "--runs", runs, "--out", str(out / "validation.json")],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("calibrate-validate", DESK, 10),
        Workload("pricing-compare", A10, 1),
        Workload("stress-grid", STRESS, 1),
    )
}


def write_inputs(workload: Workload, inputs: Path) -> None:
    """Write the workload's network and scenario files with the package's
    own desk-scale builders."""
    from parkdyn import network, scenarios

    inputs.mkdir(parents=True, exist_ok=True)
    net = scenarios.desk_network(**workload.inputs["network"])
    network.save_network(net, inputs / "network.json")
    sc = scenarios.validation_scenario(**workload.inputs["scenario"])
    (inputs / "scenario.json").write_text(json.dumps(sc.to_dict(), sort_keys=True) + "\n")
