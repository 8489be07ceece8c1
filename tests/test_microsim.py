import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from parkdyn.microsim import (
    ALLOWED_TRANSITIONS,
    GuidanceConfig,
    ScenarioConfig,
    Simulation,
    _Vehicle,
    apply_regional_guidance,
    choose_parking_alternative,
    mean_network_speed,
    measure_nfd,
    performance_metrics,
)
from parkdyn.network import (
    DurationDistribution,
    Link,
    Network,
    Node,
    OffStreetLot,
    add_lot,
    build_grid,
)
from parkdyn.scenarios import desk_network, macro_demand, validation_scenario


def small_net(lot_capacity=5, spots=2):
    net = build_grid(3, 3, 0.1, 50, 100, spots)
    if lot_capacity:
        upper = sorted(lid for lid, r in net.region_assignment.items() if r == 1)
        net = add_lot(net, OffStreetLot("lot", entry_link=upper[0], capacity=lot_capacity))
    return net


def small_scenario(**kw):
    defaults = dict(
        parker_count=60,
        passer_count=120,
        alpha_off=-1.0,
        beta=0.3,
        duration=DurationDistribution("uniform", 0.0, 0.4),
        captive_spots=6,
        horizon=0.5,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestChooseParkingAlternative:
    def test_equal_utilities_split_evenly(self):
        _, probs = choose_parking_alternative([2.0, 2.0], [1.0, 1.0], 0.5, random.Random(0))
        assert probs == pytest.approx([0.5, 0.5])

    def test_on_share_example(self):
        _, probs = choose_parking_alternative([2.0, 5.0], [0.0, 1.0], 0.3, random.Random(0))
        assert probs[0] == pytest.approx(0.47502081252106)

    def test_beta_zero_uniform_over_four(self):
        _, probs = choose_parking_alternative([0, 3, 7, 10], [1, 1, 1, 1], 0.0, random.Random(0))
        assert probs == pytest.approx([0.25] * 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            choose_parking_alternative([], [], 0.3, random.Random(0))
        with pytest.raises(ValueError):
            choose_parking_alternative([1.0], [0.0], -0.1, random.Random(0))

    def test_sampling_matches_probabilities(self):
        rng = random.Random(7)
        counts = Counter(
            choose_parking_alternative([0.0, 2.0], [0.0, 0.0], 0.5, rng)[0] for _ in range(20000)
        )
        p1 = 1.0 / (1.0 + math.exp(-1.0))
        assert counts[0] / 20000 == pytest.approx(p1, abs=0.02)


class TestRegionalGuidance:
    CFG = GuidanceConfig(regional_guidance=True, regional_threshold=0.95, compliance=1.0)

    def test_divert_above_threshold(self):
        assert apply_regional_guidance(0.96, self.CFG, compliant=True) is True

    def test_proceed_below_threshold(self):
        assert apply_regional_guidance(0.90, self.CFG, compliant=True) is False

    def test_no_cooperation_no_effect(self):
        # compliance is drawn once per driver: at 0 no driver is compliant
        cfg = GuidanceConfig(regional_guidance=True, compliance=0.0)
        sim = Simulation(small_net(), small_scenario(guidance=cfg), 0)
        assert sim.vehicles
        assert not any(apply_regional_guidance(0.96, cfg, v.compliant) for v in sim.vehicles)

    def test_per_driver_flag_overrides(self):
        assert apply_regional_guidance(0.96, self.CFG, compliant=False) is False


class TestLocalSearch:
    def make_sim(self, guidance=None):
        net = small_net(lot_capacity=0)
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0,
                            guidance=guidance or GuidanceConfig())
        return Simulation(net, sc, 0), net

    def test_uniform_over_supplied_candidates(self):
        sim, net = self.make_sim()
        # center node 4 of the 3x3 grid, reached on 1-4: four out-links,
        # one is the reverse
        counts = Counter(sim.local_search_step("1-4", False) for _ in range(3000))
        assert set(counts) == {"4-3", "4-5", "4-7"}  # no u-turn back to 1
        for c in counts.values():
            assert c / 3000 == pytest.approx(1 / 3, abs=0.04)

    def test_local_guidance_picks_min_occupancy(self):
        sim, net = self.make_sim(GuidanceConfig(local_guidance=True))
        sim.free["4-3"] = 0
        sim.free["4-5"] = 2
        sim.free["4-7"] = 1
        assert sim.local_search_step("1-4", False) == "4-5"

    def test_local_guidance_falls_back_to_random(self):
        sim, net = self.make_sim(GuidanceConfig(local_guidance=True))
        for lid in ("4-3", "4-5", "4-7"):
            sim.free[lid] = 0
        picks = {sim.local_search_step("1-4", False) for _ in range(200)}
        assert picks <= {"4-3", "4-5", "4-7"}
        assert len(picks) > 1

    def test_defers_when_no_supplies_downstream(self):
        net = build_grid(3, 3, 0.1, 50, 100, 0)  # nowhere to park
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0)
        sim = Simulation(net, sc, 0)
        picks = {sim.local_search_step("1-4", False) for _ in range(100)}
        assert picks <= {"4-3", "4-5", "4-7"}

    def test_u_turn_candidate_when_allowed(self):
        nodes = [Node(0), Node(1, allows_u_turn=True), Node(2)]
        links = [
            Link("0-1", 0, 1, 0.1, parking_capacity=1),
            Link("1-0", 1, 0, 0.1, parking_capacity=1),
            Link("1-2", 1, 2, 0.1, parking_capacity=1),
            Link("2-1", 2, 1, 0.1, parking_capacity=1),
            Link("0-2", 0, 2, 0.1),
            Link("2-0", 2, 0, 0.1),
        ]
        net = Network(nodes, links)
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0)
        sim = Simulation(net, sc, 0)
        picks = {sim.local_search_step("0-1", False) for _ in range(200)}
        assert picks == {"1-0", "1-2"}  # reverse link included at a u-turn node


class TestStep:
    def test_empty_network_no_demand_unchanged(self):
        net = small_net()
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0)
        sim = Simulation(net, sc, 0)
        sim.step()
        assert sim.injected == 0
        assert sim.check_conservation()
        assert sim._series["active"][0] == 0

    def test_moving_bottleneck_caps_link_speed(self):
        # a slow cruiser and a passer on one low-density link both advance
        # at the cruiser's desired speed
        net = small_net(lot_capacity=0)
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0)
        sim = Simulation(net, sc, 0)

        cruiser = _Vehicle(0, 0.0, 0, 8, "park-on", 0.2, 50.0, 10.0, False)
        cruiser.family = "iv"
        passer = _Vehicle(1, 0.0, 0, 8, "pass", 0.0, 50.0, 30.0, False)
        passer.family = "iii"
        passer.route = ["0-1", "1-2"]
        sim.free["0-1"] = 0  # nothing to grab mid-link
        sim.vehicles = [cruiser, passer]
        sim.injected = len(sim.vehicles)
        sim._alloc_slots()
        for veh in sim.vehicles:
            sim._place(veh, "0-1")
        sim.step()
        expected = 10.0 * 1.0 / 3600.0
        assert sim.pos[cruiser.vid] == pytest.approx(expected)
        assert sim.pos[passer.vid] == pytest.approx(expected)

    def test_full_lot_circuit_and_reappearance(self):
        net = small_net(lot_capacity=1)
        sc = small_scenario(parker_count=0, passer_count=0, captive_spots=0)
        sim = Simulation(net, sc, 0)
        lot = sim.lot
        sim.family_count["vi"] = 1  # lot already full

        veh = _Vehicle(0, 0.0, 0, 8, "park-off", 0.2, 50.0, 30.0, False)
        veh.family = "ii"
        veh.route = [lot.entry_link]
        veh.route_i = 0
        sim.t = 0.0
        sim.vehicles = [veh]
        sim.injected = 1
        sim._alloc_slots()
        sim._arrive_lot(veh)
        assert len(sim.circuit_heap) == 1
        circuit_s = lot.circuit_time * 3600.0
        sim.run_until(circuit_s + 3.0)
        assert len(sim.circuit_heap) == 0
        assert veh.family in ("iv", "v")  # back on the street, searching
        assert veh.circuits == 1

    def test_family_transitions_all_legal(self):
        net = small_net()
        res = Simulation(net, small_scenario(), 3).run()
        for ev in res.events:
            assert (ev.from_family, ev.to_family) in ALLOWED_TRANSITIONS

    def test_conservation_every_50_steps(self):
        net = small_net()
        sim = Simulation(net, small_scenario(), 1)
        while sim.step_i < sim.n_steps:
            sim.step()
            if sim.step_i % 50 == 0:
                assert sim.check_conservation()
        assert sim.check_conservation()

    def test_conservation_checks_family_ledger(self):
        sim = Simulation(small_net(), small_scenario(), 1)
        sim.run_until(600.0)
        assert sim.check_conservation()
        sim.family_count["iii"] -= 1
        sim.family_count["iv"] += 1  # right total, wrong families
        assert not sim.check_conservation()

    def test_conservation_checks_slot_arrays(self):
        sim = Simulation(small_net(), small_scenario(), 1)
        sim.run_until(900.0)
        assert sim.check_conservation()
        parked = sim.parked_heap[0][2].vid
        on = sim.on_link()[0]
        keys = sim.link_key.copy()
        sim.link_key[parked] = sim.link_key[on] + 1  # a parked vehicle on a link
        assert not sim.check_conservation()
        sim.link_key[:] = keys
        sim.link_key[on] = -1  # an on-road vehicle missing from the arrays
        assert not sim.check_conservation()
        sim.link_key[:] = keys
        assert sim.check_conservation()

    def test_determinism_bit_identical_events(self):
        net = small_net()
        r1 = Simulation(net, small_scenario(), 9).run()
        r2 = Simulation(net, small_scenario(), 9).run()
        assert r1.events == r2.events
        assert all(np.array_equal(r1.series[k], r2.series[k]) for k in r1.series)

    def test_spot_bounds_hold_throughout(self):
        net = small_net(lot_capacity=3)
        sc = small_scenario(parker_count=120)
        sim = Simulation(net, sc, 2)
        while sim.step_i < sim.n_steps:
            sim.step()
            assert all(0 <= f <= net.links[lid].parking_capacity for lid, f in sim.free.items())
            assert 0 <= sim.family_count["vi"] <= 3

    def test_prices_shift_parker_choices(self):
        net = small_net(lot_capacity=40)
        sc = small_scenario(parker_count=100, beta=0.5, alpha_off=0.0)
        off_free = Simulation(net, sc, 4).run().summary.parked_off_total
        sc_priced = small_scenario(parker_count=100, beta=0.5, alpha_off=0.0, tau_on=8.0)
        off_priced = Simulation(net, sc_priced, 4).run().summary.parked_off_total
        assert off_priced > off_free


class TestMeasureNfd:
    def test_single_vehicle_constant_speed(self):
        series = {
            "t_s": np.arange(0, 60.0),
            "dist_km": np.full(60, 50.0 / 3600.0),
            "active": np.ones(60),
        }
        rows = measure_nfd(series, 1.0, 60.0, 1.0)
        assert len(rows) == 1
        assert rows[0][3] == pytest.approx(50.0)

    def test_empty_window_omitted(self):
        series = {"t_s": np.arange(0, 60.0), "dist_km": np.zeros(60), "active": np.zeros(60)}
        assert measure_nfd(series, 1.0, 60.0, 1.0) == []

    def test_two_vehicle_time_mean(self):
        # equal presence at 30 and 50 km/hr: space-mean speed is 40
        series = {
            "t_s": np.arange(0, 60.0),
            "dist_km": np.full(60, (30.0 + 50.0) / 3600.0),
            "active": np.full(60, 2.0),
        }
        rows = measure_nfd(series, 1.0, 60.0, 1.0)
        assert rows[0][3] == pytest.approx(40.0)
        assert rows[0][1] == pytest.approx(2.0)  # veh/km on a 1-km network

    def test_rejects_bad_arguments(self):
        series = {"t_s": np.zeros(1), "dist_km": np.zeros(1), "active": np.zeros(1)}
        with pytest.raises(ValueError):
            measure_nfd(series, 0.0, 60.0, 1.0)
        with pytest.raises(ValueError):
            measure_nfd(series, 1.0, 0.0, 1.0)


class TestPerformanceMetrics:
    def test_uncontested_parker_zero_delay_zero_search(self):
        net = small_net(lot_capacity=0, spots=3)
        sc = small_scenario(parker_count=1, passer_count=0, captive_spots=0,
                            duration=DurationDistribution("uniform", 0.0, 0.05))
        res = Simulation(net, sc, 0).run()
        m = performance_metrics(res)
        assert m["completion_rate"] == 1.0
        assert m["distance_to_park"] == [0.0]
        # movement is quantized at 1-s steps with node-crossing residuals, so
        # "zero delay" means at most ~1 s per link traversed
        assert 0.0 <= m["avg_delay_s"] <= 6.0

    def test_still_cruising_excluded_and_not_completed(self):
        net = small_net(lot_capacity=0, spots=1)
        # saturate: more parkers than spots, durations longer than horizon
        sc = small_scenario(
            parker_count=30, passer_count=0, captive_spots=0,
            duration=DurationDistribution("uniform", 2.0, 3.0), horizon=0.25,
        )
        res = Simulation(net, sc, 1).run()
        m = performance_metrics(res)
        assert m["completion_rate"] < 1.0
        assert len(m["distance_to_park"]) < m["n_parkers"]

    def test_no_parkers_reports_absent(self):
        net = small_net()
        sc = small_scenario(parker_count=0, passer_count=10, captive_spots=0)
        m = performance_metrics(Simulation(net, sc, 0).run())
        assert m["completion_rate"] is None
        assert m["mean_distance_to_park"] is None


class TestDirectionalProperties:
    def test_mean_speed_nonincreasing_in_cruise_speed(self):
        net = desk_network(rows=4, cols=4, total_spots=80, lot_capacity=10)
        speeds = {}
        for vc in (50.0, 30.0, 10.0):
            vals = []
            for seed in range(3):
                sc = validation_scenario(
                    parker_count=150, passer_count=500, captive_spots=40, cruise_speed=vc
                )
                vals.append(mean_network_speed(Simulation(net, sc, seed).run()))
            speeds[vc] = np.mean(vals)
        assert speeds[50.0] > speeds[30.0] > speeds[10.0]

    def test_guidance_improves_search(self):
        net = desk_network(
            rows=6, cols=6, total_spots=150, lot_capacity=15, upper_share=0.3, supply_fraction=0.3
        )
        none, joint = [], []
        for seed in range(3):
            for out, guid in (
                (none, GuidanceConfig()),
                (joint, GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=1.0)),
            ):
                sc = validation_scenario(
                    parker_count=220, passer_count=800, captive_spots=55, guidance=guid
                )
                m = performance_metrics(Simulation(net, sc, seed).run())
                out.append(m["mean_distance_to_park"])
        assert np.mean(joint) < np.mean(none)


def test_preoccupied_spots_vacate_on_schedule():
    net = small_net(lot_capacity=0, spots=3)
    sc = small_scenario(
        parker_count=0, passer_count=0, captive_spots=5,
        preoccupied_spots=12, vacate_per_minute=6.0, horizon=0.25,
    )
    sim = Simulation(net, sc, 0)
    assert sim.occupied_on == 17
    sim.run_until(59.0)
    occupied_after_first_minute = sim.occupied_on
    assert occupied_after_first_minute < 17  # six spots freed within the minute
    sim.run_until(121.0)
    assert sim.occupied_on == 5  # all 12 vacated after two minutes; captives stay
    sim.run_until(sc.horizon * 3600.0)
    assert sim.occupied_on == 5


def jammed_shuttle(spots=0):
    """Two 1-km links between nodes 0 and 1 at jam density 1 veh/km: a link
    with two vehicles on it is jammed, and each of them stands."""
    nodes = [Node(0), Node(1)]
    links = [
        Link("0-1", 0, 1, 1.0, jam_density=1.0, parking_capacity=spots),
        Link("1-0", 1, 0, 1.0, jam_density=1.0),
    ]
    return Network(nodes, links)


def place_on_jammed_link(sim, vehicles):
    """Put ``vehicles`` (two or more) on link 0-1 of a jammed shuttle; its
    passers are in transit to node 1."""
    sim.vehicles = vehicles
    sim.injected = len(vehicles)
    sim._alloc_slots()
    for veh in vehicles:
        if veh.purpose == "pass":
            veh.family = "iii"
            veh.route = ("0-1",)
        sim.family_count[veh.family] += 1
        sim._place(veh, "0-1")


def test_gridlock_flagged_not_fatal():
    # every passer soon stands on a jammed link, so no step moves anybody:
    # the run completes, flags gridlock, and the step distance stays 0
    sc = ScenarioConfig(parker_count=0, passer_count=40, horizon=0.1, gridlock_steps=30)
    res = Simulation(jammed_shuttle(), sc, 0).run()
    assert res.summary.injected == 40
    assert res.summary.exited == 0
    assert res.summary.gridlock
    dist = res.series["dist_km"]
    assert len(dist) == 360
    assert int((dist == 0.0).sum()) == 342


def test_standing_vehicle_gains_only_driving_time():
    sim = Simulation(jammed_shuttle(), ScenarioConfig(), 0)
    passers = [_Vehicle(vid, 0.0, 0, 1, "pass", 0.0, 50.0, 30.0, False) for vid in range(2)]
    place_on_jammed_link(sim, passers)
    # mid-trip values, so that any changed bit shows
    sim.pos[:] = [0.1, 0.7]
    sim.dist_family[:] = [1.3, 2.9]
    sim.dist_total[:] = [4.1, 5.3]
    sim.freeflow_time_s[:] = [71.3, 333.7]
    sim.drive_time_s[:] = [100.1, 200.3]
    kept = ("pos", "dist_family", "dist_total", "freeflow_time_s")
    before = {name: getattr(sim, name).tobytes() for name in kept}
    drive = sim.drive_time_s.copy()
    for _ in range(5):
        sim.step()
        drive += sim.dt
        assert sim.drive_time_s.tobytes() == drive.tobytes()
        assert {name: getattr(sim, name).tobytes() for name in kept} == before
    assert sim.series()["dist_km"].tolist() == [0.0] * 5
    assert sim.still_steps == 5


def test_vehicle_at_the_end_of_a_jammed_link_arrives():
    sim = Simulation(jammed_shuttle(), ScenarioConfig(), 0)
    passers = [_Vehicle(vid, 0.0, 0, 1, "pass", 0.0, 50.0, 30.0, False) for vid in range(2)]
    place_on_jammed_link(sim, passers)
    sim.pos[1] = 1.0  # at the end of link 0-1: no room left, so its 0 advance arrives
    sim.step()
    assert passers[1].family == "exited"
    assert passers[0].family == "iii"
    assert sim.link_key[1] == -1


@pytest.mark.parametrize("name", ["desired_speed", "cruise_speed"])
@pytest.mark.parametrize(
    "speed, jitter", [(0.0, 0.0), (-1.0, 0.0), (5.0, 5.0), (5.0, -5.0), (4.0, 5.0), (math.nan, 0.0)]
)
def test_speed_range_reaching_zero_rejected(name, speed, jitter):
    # a driver drawn at 0 km/hr would take 0 / 0 = NaN free-flow time per
    # step, and one below 0 would drive backwards
    want = rf"^field '{name}' must exceed \|{name}_jitter\| so that every drawn speed is > 0, "
    with pytest.raises(ValueError, match=want):
        ScenarioConfig(**{name: speed, f"{name}_jitter": jitter})
    ScenarioConfig(**{name: 5.0, f"{name}_jitter": -4.999})


def test_due_cruiser_on_jammed_link_parks_when_a_spot_frees():
    sim = Simulation(jammed_shuttle(spots=1), ScenarioConfig(), 0)
    cruiser = _Vehicle(0, 0.0, 0, 1, "park-on", 0.2, 50.0, 30.0, False)
    cruiser.family = "iv"
    passer = _Vehicle(1, 0.0, 0, 1, "pass", 0.0, 50.0, 30.0, False)
    sim._take_spot("0-1")  # the link's one spot is taken
    place_on_jammed_link(sim, [cruiser, passer])
    recheck_s = sim.next_recheck_s[cruiser.vid]
    sim.run_until(recheck_s + 10.0)  # due from recheck_s on, with no free spot
    assert cruiser.family == "iv"
    assert sim.pos[cruiser.vid] == 0.0
    sim._free_spot("0-1")
    t_s = sim.t
    sim.step()
    assert cruiser.family == "v"
    assert sim.link_key[cruiser.vid] == -1
    assert sim.free["0-1"] == 0
    assert sim.events[-1][:5] == (cruiser.vid, t_s, "iv", "v", "0-1")


@pytest.mark.parametrize(
    "profile, first_half", [("ramp-up", 0.25), ("uniform", 0.5), ("ramp-down", 0.75)]
)
def test_demand_profiles_share_of_first_half(profile, first_half):
    """Micro arrivals and the macro demand put the share F(1/2) of each
    flow in the first half of the horizon: F(x) = x² rising, x uniform,
    1 - (1 - x)² falling."""
    sc = validation_scenario(parker_count=2000)
    sc = dataclasses.replace(sc, parker_profile=profile, passer_profile=profile)
    half_s = sc.horizon * 3600.0 / 2
    sim = Simulation(desk_network(), sc, 0)
    for purpose, n in (("park-on", sc.parker_count), ("pass", sc.passer_count)):
        times = [v.entry_s for v in sim.vehicles if v.purpose == purpose]
        assert len(times) == n
        share = sum(t < half_s for t in times) / n
        assert abs(share - first_half) <= 4 * math.sqrt(first_half * (1 - first_half) / n)
    for demand in macro_demand(sc, 10.0 / 3600.0):
        share = demand[: len(demand) // 2].sum() / demand.sum()
        assert share == pytest.approx(first_half, abs=1e-12)
