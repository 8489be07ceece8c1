"""Acceptance criteria A1-A10, each printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy scenario
fixtures are shared at module scope; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from parkdyn.bintheory import (
    BinParams,
    brute_force_envelope,
    critical_density,
    envelope_no_cruising,
    envelope_with_cruising,
    unstable_area,
)
from parkdyn.calibration import calibrate, micro_series_on_macro_grid, validate
from parkdyn.cli import run_mode
from parkdyn.estimators import DistanceModel, evaluate, monte_carlo_screening
from parkdyn.macromodel import (
    MacroState,
    NfdModel,
    nfd_speed,
    redeparture_flows,
    redeparture_flows_uniform,
    uniform_profile,
)
from parkdyn.microsim import (
    GuidanceConfig,
    Simulation,
    mean_network_speed,
    measure_nfd,
    performance_metrics,
    time_metrics,
)
from parkdyn.mpc import MpcConfig, solve_full_horizon
from parkdyn.network import DurationDistribution
from parkdyn.scenarios import (
    baseline_macro_run,
    desk_network,
    macro_demand,
    macro_params_from_calibration,
    validation_scenario,
)

SEEDS = list(range(10))


def report(line):
    print(f"\n{line}")


# --------------------------------------------------------------------- A1


def test_a1_envelopes_match_brute_force():
    t0 = time.time()
    worst = 0.0
    worst_cont = 0.0
    for v_c in (10.0, 20.0, 30.0, 40.0):
        p = BinParams(50.0, v_c, 100.0)
        for K in np.round(np.arange(0.0, 100.0001, 0.1), 10):
            fmax, fmin = envelope_with_cruising(float(K), p)
            bmax, bmin = brute_force_envelope(float(K), p, cruising=True, grid_step=0.01)
            worst = max(worst, abs(fmax - bmax), abs(fmin - bmin))
        k_c = critical_density(p)
        d = 1e-11
        for x in (k_c / 4, 3 * k_c / 4, k_c, k_c / 2, 50.0, (k_c + 100.0) / 2):
            a = envelope_with_cruising(max(0.0, x - d), p)
            b = envelope_with_cruising(min(100.0, x + d), p)
            worst_cont = max(worst_cont, abs(a[0] - b[0]), abs(a[1] - b[1]))
    elapsed = time.time() - t0
    ok = worst <= 0.05 and worst_cont <= 1e-9 and elapsed < 5.0
    report(
        f"A1 {'PASS' if ok else 'FAIL'} - envelope vs brute force: "
        f"max dev {worst:.2e} (<=0.05), branch continuity {worst_cont:.2e} (<=1e-9), "
        f"{elapsed:.1f}s (<5s)"
    )
    assert worst <= 0.05
    assert worst_cont <= 1e-9
    assert elapsed < 5.0


# --------------------------------------------------------------------- A2


def test_a2_unstable_area_monotone_and_half_jam_gridlock():
    areas = [unstable_area(BinParams(50.0, v_c, 100.0), True) for v_c in (10, 20, 30, 40)]
    monotone = all(a > b for a, b in zip(areas, areas[1:]))
    p = BinParams(50.0, 10.0, 100.0)
    Ks = np.round(np.arange(0.0, 100.0001, 0.1), 10)
    first_zero = next(K for K in Ks if envelope_no_cruising(float(K), p)[1] <= 1e-12)
    at_half_jam = abs(first_zero - 50.0) <= 0.1
    ok = monotone and at_half_jam
    report(
        f"A2 {'PASS' if ok else 'FAIL'} - unstable area strictly decreasing in v_c "
        f"({', '.join(f'{a:.0f}' for a in areas)}); no-cruising gridlock first at "
        f"K={first_zero} (k_j/2=50 within grid step)"
    )
    assert monotone
    assert at_half_jam


# --------------------------------------------------------------------- A3


def test_a3_redeparture_general_equals_uniform():
    t0 = time.time()
    rng = np.random.default_rng(123)
    dur = DurationDistribution("uniform", 0.0, 1.0)
    dt = 10.0 / 3600.0
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 361))
        o_c = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
        o_m = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
        q_o = [0.0] + np.minimum(rng.uniform(0, 1, size=k - 1), o_m[1:]).tolist()
        a = redeparture_flows(o_c, o_m, q_o, dur, k, dt)
        b = redeparture_flows_uniform(o_c, o_m, q_o, 1.0, k, dt)
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        f"A3 {'PASS' if ok else 'FAIL'} - duration-CDF sums vs constant-rate "
        f"simplification: max dev {worst:.2e} (<=1e-12) on 100 random histories, "
        f"{elapsed:.2f}s (<1s)"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------------- A4


def test_a4_macro_conservation_and_capacity():
    from parkdyn.macromodel import MacroParams, macro_step

    params = MacroParams(
        nfd=NfdModel(55.2, 151.2, 142.1),
        distance_model=DistanceModel("exp-distance", {"a": 5.2e-11, "b": 24.4}),
        duration=DurationDistribution("uniform", 0.0, 1.0),
        N_on=300,
        N_off=50,
        l_m_on=1.0,
        l_m_off=0.9,
        l_m_pass=1.1,
        l_off=0.3,
        v_on_f=30.0,
        v_off_f=15.0,
        dt=10.0 / 3600.0,
        alpha_on=0.0,
        alpha_off=-1.0,
        beta=0.3,
    )
    rng = np.random.default_rng(99)
    n = 360  # 1 hr at 10 s
    state = MacroState()
    weights = params.redeparture_weights(n)
    worst_resid = 0.0
    cap_ok = True

    for k in range(n):
        macro_step(
            state, float(rng.uniform(0, 2)), float(rng.uniform(0, 1)), float(rng.uniform(0, 3)),
            params, weights,
        )
        total = (
            state.n_m_off + state.n_m_on + state.n_m_pass + state.n_c
            + state.n_off + state.n_on + state.in_circuit(params.k_off) + state.cum_exit
        )
        worst_resid = max(worst_resid, abs(total - state.cum_inflow) / max(1.0, state.cum_inflow))
        cap_ok = cap_ok and state.n_on <= params.N_on + 1e-9 and state.n_off <= params.N_off + 1e-9
    ok = worst_resid <= 1e-9 and cap_ok
    report(
        f"A4 {'PASS' if ok else 'FAIL'} - 1-hr random-demand macro run: "
        f"worst conservation residual {worst_resid:.2e} (<=1e-9 relative), "
        f"capacity bounds {'held' if cap_ok else 'violated'}"
    )
    assert worst_resid <= 1e-9
    assert cap_ok


# --------------------------------------------------------------------- A5


@pytest.fixture(scope="module")
def a5_pipeline():
    t0 = time.time()
    net = desk_network()  # 6x6, 300 spots, N_off=50
    sc = validation_scenario()  # 400 parkers, 10 seeds below
    results = [Simulation(net, sc, seed).run() for seed in SEEDS]
    cal = calibrate(results)
    traj = baseline_macro_run(cal, net, sc, 10.0 / 3600.0)
    micro = micro_series_on_macro_grid(results, 10.0)
    metrics = validate(traj, micro)
    return metrics, time.time() - t0, net, sc, results


def test_a5_macro_micro_consistency(a5_pipeline):
    metrics, elapsed, net, sc, _ = a5_pipeline
    err = metrics["n_on"]["peak_relative_error"]
    env = metrics["v"]["envelope_fraction"]
    ok = err <= 0.10 and env >= 0.80 and elapsed < 300.0
    report(
        f"A5 {'PASS' if ok else 'FAIL'} - 6x6 desk scenario ({net.total_parking_capacity} "
        f"spots, N_off=50, {sc.parker_count} parkers, 10 seeds): peak n_on error "
        f"{err:.3f} (<=0.10), macro v inside micro envelope {env:.1%} (>=80%), "
        f"{elapsed:.0f}s (<300s)"
    )
    assert err <= 0.10
    assert env >= 0.80
    assert elapsed < 300.0


# --------------------------------------------------------------------- A6


def test_a6_geometric_screening_oracle():
    lines = []
    ok = True
    for O in (0.5, 0.8, 0.9):
        rng = np.random.default_rng(1000 + int(O * 100))
        mean = monte_carlo_screening(O, 100_000, rng)
        expect = 1.0 / (1.0 - O)
        se = math.sqrt(O) / (1.0 - O) / math.sqrt(100_000)
        ok = ok and abs(mean - expect) < 3 * se
        lines.append(f"O={O}: {mean:.3f} vs {expect:.3f} (3se={3*se:.3f})")
    report(f"A6 {'PASS' if ok else 'FAIL'} - Bernoulli screening oracle: " + "; ".join(lines))
    assert ok


# --------------------------------------------------------------------- A7


def test_a7_paper_parameter_evaluations():
    nfd = NfdModel(55.2, 151.2, 142.1)
    mid = nfd_speed(nfd, 151.2)
    dist = DistanceModel("exp-distance", {"a": 5.2e-11, "b": 24.4})
    val = evaluate(dist, 0.95)
    independent = 0.6066656900750366  # 5.2e-11 * exp(24.4*0.95), computed separately
    ok = mid == 27.6 and abs(val - independent) / independent < 0.01
    report(
        f"A7 {'PASS' if ok else 'FAIL'} - calibrated constants: speed at midpoint "
        f"{mid} (=27.6 exactly), cruise distance at 0.95 occupancy {val:.6f} "
        f"(within 1% of {independent:.6f})"
    )
    assert mid == 27.6
    assert abs(val - independent) / independent < 0.01


# --------------------------------------------------------------------- A8


@pytest.fixture(scope="module")
def a8_ordering_runs():
    net = desk_network()
    speeds = {}
    for v_c in (50.0, 30.0, 10.0):
        vals = [
            mean_network_speed(
                Simulation(net, validation_scenario(cruise_speed=v_c), seed).run()
            )
            for seed in range(5)
        ]
        speeds[v_c] = float(np.mean(vals))
    return speeds


def test_a8_cruising_speed_ordering(a8_ordering_runs):
    s = a8_ordering_runs
    ok = s[50.0] > s[30.0] > s[10.0]
    report(
        f"A8a {'PASS' if ok else 'FAIL'} - mean network speed strictly ordered by "
        f"cruising speed: v_c=50: {s[50.0]:.2f} > v_c=30: {s[30.0]:.2f} > "
        f"v_c=10: {s[10.0]:.2f} km/hr (same demand and seeds)"
    )
    assert ok


def _a8_nfd_shift(passer_levels):
    """Compare pooled NFD clouds between v_c=50 and v_c=10 for one traffic mix.

    Each cloud pools 60 s Edie samples of 400 parkers with each passing-demand
    level (the demand-sweep design), seeds 0-3. V is binned by K in 0.5 veh/km
    bins; a bin counts when both clouds hold at least 8 samples in it. Returns
    the largest relative shift of mean V at matched K and the relative growth
    of the mean within-bin std of V, over the common bins.
    """
    net = desk_network()
    clouds = {}
    for v_c in (50.0, 10.0):
        rows = []
        for passers in passer_levels:
            for seed in range(4):
                sc = validation_scenario(
                    parker_count=400, passer_count=passers, captive_spots=0, cruise_speed=v_c
                )
                res = Simulation(net, sc, seed).run()
                rows.extend(measure_nfd(res.series, res.network_length, 60.0, res.dt_sim))
        clouds[v_c] = np.array([(K, V) for _, K, _, V in rows])

    edges = np.arange(0.0, max(c[:, 0].max() for c in clouds.values()) + 0.5, 0.5)

    def bin_stats(arr):
        spread, meanv = {}, {}
        for lo in edges:
            sel = arr[(arr[:, 0] >= lo) & (arr[:, 0] < lo + 0.5)][:, 1]
            if sel.size >= 8:
                spread[lo] = sel.std()
                meanv[lo] = sel.mean()
        return spread, meanv

    s50, m50 = bin_stats(clouds[50.0])
    s10, m10 = bin_stats(clouds[10.0])
    common = sorted(set(s50) & set(s10))
    shift = float(max(abs(m10[b] - m50[b]) / m50[b] for b in common))
    spread = float(np.mean([s10[b] for b in common]) / np.mean([s50[b] for b in common]) - 1.0)
    return shift, spread


def test_a8_nfd_scatter_insensitivity():
    # Finding (i): a low cruising speed does not significantly alter the NFD
    # unless cruisers dominate the stream. The abstract gives no number for
    # "significantly"; the 10% bound on the matched-K mean-V shift sits between
    # the two mixes as measured on seed sets 0-3, 4-7 and 8-11 (minority
    # 5.1/6.1/6.5%, dominated 19.9/19.0/15.3%), at least 3.5 points from either.
    # Spread is reported, not asserted: the two-bin envelopes widen as v_c
    # falls (A2), so more matched-K scatter at v_c=10 is the theory's prediction.
    bound = 0.10
    minority, minority_spread = _a8_nfd_shift((1400, 2000, 2600))
    dominated, _ = _a8_nfd_shift((0, 100, 200))
    ok = minority < bound < dominated
    report(
        f"A8b {'PASS' if ok else 'FAIL'} - mean NFD speed shift at matched K from "
        f"v_c=50 to v_c=10: {minority:.1%} with minority cruisers (<{bound:.0%}), "
        f"{dominated:.1%} when cruisers dominate (>{bound:.0%}); matched-K V spread "
        f"grows {minority_spread:+.0%} with minority cruisers, as the widening "
        f"two-bin envelopes predict"
    )
    assert minority < bound
    assert dominated > bound


# --------------------------------------------------------------------- A9


@pytest.fixture(scope="module")
def a9_runs():
    net = desk_network(
        rows=8, cols=8, total_spots=300, lot_capacity=30, upper_share=0.3, supply_fraction=0.3
    )

    def run(guid):
        out = []
        for seed in SEEDS:
            sc = validation_scenario(
                parker_count=430, passer_count=2000, captive_spots=110, guidance=guid
            )
            m = performance_metrics(Simulation(net, sc, seed).run())
            out.append((m["mean_distance_to_park"], m["completion_rate"]))
        return np.array(out)

    return {
        "none": run(GuidanceConfig()),
        "joint": run(GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=1.0)),
        "joint25": run(GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=0.25)),
    }


def test_a9_guidance_gains(a9_runs):
    none, joint, j25 = a9_runs["none"], a9_runs["joint"], a9_runs["joint25"]
    dist_wins = int((joint[:, 0] < none[:, 0]).sum())
    compl_wins = int((joint[:, 1] > none[:, 1]).sum())
    full_red = none[:, 0].mean() - joint[:, 0].mean()
    part_red = none[:, 0].mean() - j25[:, 0].mean()
    share = part_red / full_red if full_red > 0 else float("nan")
    ok = dist_wins == 10 and compl_wins == 10 and share >= 0.5
    report(
        f"A9 {'PASS' if ok else 'FAIL'} - joint guidance vs none on all 10 seeds: "
        f"distance-to-park lower on {dist_wins}/10 ({none[:,0].mean():.3f}->"
        f"{joint[:,0].mean():.3f} km), completion higher on {compl_wins}/10 "
        f"({none[:,1].mean():.3f}->{joint[:,1].mean():.3f}); 25% compliance captures "
        f"{share:.0%} of the distance reduction (>=50%)"
    )
    assert dist_wins == 10
    assert compl_wins == 10
    assert share >= 0.5


# -------------------------------------------------------------------- A10


@pytest.fixture(scope="module")
def a10_runs():
    net = desk_network(lot_capacity=100)  # doubled off-street capacity
    sc = validation_scenario(parker_count=450)
    base_results = [Simulation(net, sc, s).run() for s in SEEDS]
    base_obj = np.array([
        time_metrics(r.series, r.dt_sim, r.l_off, r.v_off_f)["ineffective_cruising_veh_hr"]
        for r in base_results
    ])
    cal = calibrate(base_results)
    cfg = MpcConfig(
        control_interval=0.25,
        n_intervals=2,
        n_starts=4,
        budget=80,
        controlled=("on",),
        tau_min=0.0,
        tau_max=10.0,
        tau_gap=3.0,
    )
    params = macro_params_from_calibration(cal, net, sc, 10.0 / 3600.0)
    park, pas = macro_demand(sc, params.dt)
    mpc_obj, schedules = [], []
    for s in SEEDS:
        # the driver of `compare`: the same demand, horizon (1 hr) and base prices (0, 0)
        m, log = run_mode("mpc", net, sc, params, cfg, s)
        mpc_obj.append(m["ineffective_cruising_veh_hr"])
        schedules.append([it.applied for it in log])
    return base_obj, np.array(mpc_obj), schedules, params, park, pas, cfg


def test_a10_mpc_effectiveness(a10_runs):
    base_obj, mpc_obj, schedules, params, park, pas, cfg = a10_runs
    improved = int((mpc_obj < base_obj).sum())
    feasible = True
    for sch in schedules:
        prices = [p for pair in sch for p in pair]
        feasible = feasible and all(0.0 <= p <= 10.0 for p in prices)
        for (a_on, a_off), (b_on, b_off) in zip(sch, sch[1:]):
            feasible = feasible and abs(b_on - a_on) <= 3.0 + 1e-9
            feasible = feasible and abs(b_off - a_off) <= 3.0 + 1e-9
    state0 = MacroState(n_on=130.0, cum_inflow=130.0)  # the scenario's captive spots
    dyn = solve_full_horizon(park, pas, params, cfg, (0.0, 0.0), "dynamic", state0)
    sta = solve_full_horizon(park, pas, params, cfg, (0.0, 0.0), "static", state0)
    nested = dyn.objective <= sta.objective + 1e-9
    ok = (
        mpc_obj.mean() <= base_obj.mean()
        and improved >= 7
        and feasible
        and nested
    )
    report(
        f"A10 {'PASS' if ok else 'FAIL'} - MPC vs no-price with slack lot: mean "
        f"ineffective cruising {base_obj.mean():.2f}->{mpc_obj.mean():.2f} veh-hr, "
        f"strict improvement on {improved}/10 seeds (>=7); all applied schedules "
        f"inside gap-3/[0,10]: {feasible}; full-horizon dynamic {dyn.objective:.3f} "
        f"<= static {sta.objective:.3f}: {nested}"
    )
    assert mpc_obj.mean() <= base_obj.mean()
    assert improved >= 7
    assert feasible
    assert nested
