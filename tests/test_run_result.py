"""A run's per-vehicle columns and shared occupancy floats.

``performance_metrics`` reads ``RunResult.vehicles`` as numpy columns. The
reference below is the per-record loop it replaced, fed from the
simulation's own vehicles and slot arrays; every metric must match it bit
for bit. The other tests pin what a run holds: ``result()`` keeps each
per-vehicle quantity once, and events share one float per occupancy count.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from parkdyn.microsim import VEHICLE_COLUMNS, Simulation, performance_metrics
from parkdyn.network import DurationDistribution
from parkdyn.scenarios import desk_network, validation_scenario

from test_microsim import small_net, small_scenario

# parking durations (hr) that outlast every horizon below
LONG_STAY = DurationDistribution("uniform", 2.0, 3.0)


def _case(name):
    """(network, scenario, seed) of a named run."""
    if name == "desk":
        return desk_network(), validation_scenario(), 0
    if name == "dense":  # the dense case of test_golden.py
        sc = validation_scenario(parker_count=600, passer_count=4200)
        return desk_network(), dataclasses.replace(sc, horizon=0.5), 0
    if name == "cruisers-left":  # one spot, parkers that stay: the rest cruise to the end
        sc = small_scenario(parker_count=30, passer_count=20, captive_spots=0,
                            duration=LONG_STAY, horizon=0.25)
        return small_net(lot_capacity=0, spots=1), sc, 1
    if name == "no-parkers":
        return small_net(), small_scenario(parker_count=0, passer_count=10, captive_spots=0), 0
    if name == "no-exits":  # parkers only, none of them leaves within the horizon
        sc = small_scenario(parker_count=30, passer_count=0, captive_spots=0,
                            duration=LONG_STAY, horizon=0.25)
        return small_net(lot_capacity=0, spots=1), sc, 1
    raise KeyError(name)


def finished(name) -> Simulation:
    """The simulation of a named run, stepped to its horizon."""
    sim = Simulation(*_case(name))
    while sim.step_i < sim.n_steps:
        sim.step()
    return sim


def reference_records(sim):
    """One dict per injected vehicle, as the per-vehicle records were built."""
    return [
        {
            "purpose": v.purpose,
            "entry_s": v.entry_s,
            "family_end": v.family,
            "parked": v.ever_parked,
            "dist_total": sim.dist_total.item(v.vid),
            "dist_iv": v.dist_iv + (sim.dist_family.item(v.vid) if v.family == "iv" else 0.0),
            "circuits": v.circuits,
            "drive_time_s": sim.drive_time_s.item(v.vid),
            "freeflow_time_s": sim.freeflow_time_s.item(v.vid),
        }
        for v in sim.vehicles[: sim.injected]
    ]


def reference_metrics(records, result):
    """performance_metrics as a loop over per-vehicle records."""
    travel, delay, speeds, dists = [], [], [], []
    dtp = []
    n_parkers = 0
    n_parked = 0
    for rec in records:
        if rec["purpose"] in ("park-on", "park-off"):
            n_parkers += 1
            if rec["parked"]:
                n_parked += 1
                dtp.append(rec["dist_iv"] + rec["circuits"] * result.summary.l_off)
        if rec["family_end"] == "exited":
            travel.append(rec["drive_time_s"])
            delay.append(rec["drive_time_s"] - rec["freeflow_time_s"])
            if rec["drive_time_s"] > 0:
                speeds.append(rec["dist_total"] / (rec["drive_time_s"] / 3600.0))
            dists.append(rec["dist_total"])

    def mean(x):
        return float(np.mean(x)) if x else None

    return {
        "n_vehicles": len(records),
        "n_parkers": n_parkers,
        "avg_travel_time_s": mean(travel),
        "avg_delay_s": mean(delay),
        "avg_speed_kmh": mean(speeds),
        "avg_distance_km": mean(dists),
        "completion_rate": (n_parked / n_parkers) if n_parkers else None,
        "distance_to_park": dtp,
        "mean_distance_to_park": mean(dtp),
        "avg_occupancy": float(result.series["occ_on"].mean())
        if len(result.series["occ_on"])
        else 0.0,
    }


def bits(value):
    """``value`` with each float as its exact hex and each leaf's type name."""
    if isinstance(value, list):
        return [bits(x) for x in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name", ["desk", "dense", "cruisers-left", "no-parkers", "no-exits"])
def test_metrics_match_per_record_loop(name):
    sim = finished(name)
    res = sim.result()
    records = reference_records(sim)
    cols = res.vehicles
    assert tuple(cols) == VEHICLE_COLUMNS
    for key in VEHICLE_COLUMNS:
        assert len(cols[key]) == sim.injected
        assert bits(cols[key].tolist()) == bits([rec[key] for rec in records]), key
    got = performance_metrics(res)
    want = reference_metrics(records, res)
    assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in want.items()}
    ends = {rec["family_end"] for rec in records}
    if name == "cruisers-left":
        assert "iv" in ends and "exited" in ends
        assert any(rec["family_end"] == "iv" and rec["dist_iv"] > 0 for rec in records)
    if name == "no-parkers":
        assert got["n_parkers"] == 0 and got["completion_rate"] is None
    if name == "no-exits":
        assert "exited" not in ends and got["avg_travel_time_s"] is None


def test_result_holds_each_vehicle_quantity_once():
    # per-vehicle records repeating the slot arrays and copies of the series
    # took 385 traced bytes per injected vehicle on this run
    sim = finished("desk")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = sim.result()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.summary.injected == sim.injected > 0
    assert held / sim.injected <= 385 / 2


def test_events_share_occupancy_floats():
    sim = finished("desk")
    events = sim.result().events
    assert len(events) > sim.capacity + 1
    assert len({id(e.occ_on) for e in events}) <= sim.capacity + 1
    assert len({id(e.occ_off) for e in events}) <= sim.lot.capacity + 1
