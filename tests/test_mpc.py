import math
from dataclasses import replace

import numpy as np
import pytest

from parkdyn import macromodel, mpc
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import (
    MacroParams,
    MacroState,
    MacroTrajectories,
    NfdModel,
    simulate_macro,
    uniform_profile,
)
from parkdyn.microsim import Simulation, time_metrics
from parkdyn.mpc import (
    MacroPlant,
    MicroPlant,
    MpcConfig,
    mpc_loop,
    objective_ineffective_cruising,
    repair_schedule,
    solve_full_horizon,
    solve_open_loop,
)
from parkdyn.network import DurationDistribution
from parkdyn.scenarios import desk_network, macro_params_from_calibration, validation_scenario

DT = 10.0 / 3600.0


def make_params(**kw):
    defaults = dict(
        nfd=NfdModel(48.0, 180.0, 80.0),
        distance_model=DistanceModel("exp-distance", {"a": 5e-4, "b": 7.5}),
        duration=DurationDistribution("uniform", 0.0, 1.0),
        N_on=150,
        N_off=120,
        l_m_on=0.45,
        l_m_off=0.5,
        l_m_pass=0.48,
        l_off=0.3,
        v_on_f=30.0,
        v_off_f=15.0,
        dt=DT,
        alpha_on=0.0,
        alpha_off=-1.0,
        beta=0.3,
    )
    defaults.update(kw)
    return MacroParams(**defaults)


def pressure_demand(n_steps=360):
    return uniform_profile(500, n_steps), uniform_profile(1500, n_steps)


SMALL = MpcConfig(
    control_interval=0.25,
    n_intervals=2,
    n_starts=3,
    budget=40,
    controlled=("on",),
    tau_min=0.0,
    tau_max=10.0,
    tau_gap=3.0,
)


class TestPricingSchedule:
    """The price box and smoothing gap that every solved schedule keeps."""

    def test_infeasible_box_rejected(self):
        with pytest.raises(ValueError):
            replace(SMALL, tau_gap=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [("tau_gap", math.nan), ("tau_max", math.inf), ("tau_max", math.nan), ("tau_min", -math.inf)],
    )
    def test_non_finite_box_rejected(self, field, value):
        with pytest.raises(ValueError, match="price box bounds must be finite"):
            replace(SMALL, **{field: value})


class TestRepair:
    def test_projects_into_box_and_gap(self):
        raw = np.array([[9.0, 0.0], [0.0, 0.0]])
        out = repair_schedule(raw, np.array([0.0, 0.0]), 0.0, 10.0, 3.0)
        assert out[0, 0] == 3.0  # clipped to prior + gap
        assert abs(out[1, 0] - out[0, 0]) <= 3.0

    def test_unanchored_first_interval(self):
        raw = np.array([[9.0, 0.0], [0.0, 0.0]])
        out = repair_schedule(raw, None, 0.0, 10.0, 3.0)
        assert out[0, 0] == 9.0
        assert out[1, 0] == 6.0  # still gap-linked to interval 1


class TestObjective:
    def make_traj(self, n_c_value, q_ov_value, n_steps=180):
        z = np.zeros(n_steps + 1)
        f = np.zeros(n_steps)
        return MacroTrajectories(
            t=np.arange(n_steps + 1) * DT,
            n_m_on=z, n_m_off=z, n_m_pass=z,
            n_c=np.full(n_steps + 1, n_c_value),
            n_on=z, n_off=z, n=z, v=z, O_on=z,
            o_c=f, q_off_on=np.full(n_steps, q_ov_value),
            q_out_on=f, q_out_off=f,
        )

    def test_zero_when_no_cruising_or_overflow(self):
        assert objective_ineffective_cruising(self.make_traj(0.0, 0.0), make_params()) == 0.0

    def test_constant_cruising(self):
        # 10 vehicles cruising for 30 minutes
        val = objective_ineffective_cruising(self.make_traj(10.0, 0.0), make_params())
        assert val == pytest.approx(5.0)

    def test_overflow_deadweight(self):
        traj = self.make_traj(0.0, 0.0)
        traj.q_off_on[0] = 1.0
        val = objective_ineffective_cruising(traj, make_params())
        assert val == pytest.approx(0.02)


class TestSolveOpenLoop:
    def test_zero_demand_indifferent(self):
        p = make_params()
        sol = solve_open_loop(
            MacroState(), np.zeros(180), np.zeros(180), p, SMALL, (0.0, 0.0), (0.0, 0.0)
        )
        assert sol.objective == 0.0
        assert sol.indifferent

    def test_pricing_pushes_parkers_off_street(self):
        # scarce on-street, slack lot: optimized first-interval price exceeds
        # the no-pricing baseline of zero
        p = make_params()
        park, pas = pressure_demand(180)
        sol = solve_open_loop(MacroState(), park, pas, p, SMALL, (0.0, 0.0), (0.0, 0.0))
        assert sol.prices[0][0] > 0.0
        assert not sol.indifferent

    def test_schedule_always_feasible(self):
        p = make_params()
        park, pas = pressure_demand(180)
        for prior in ((0.0, 0.0), (8.0, 0.0), (5.0, 5.0)):
            sol = solve_open_loop(MacroState(), park, pas, p, SMALL, prior, prior)
            for (a_on, a_off), (b_on, b_off) in zip(sol.prices, sol.prices[1:]):
                assert abs(b_on - a_on) <= 3.0 + 1e-9
            assert abs(sol.prices[0][0] - prior[0]) <= 3.0 + 1e-9
            for tau_on, tau_off in sol.prices:
                assert 0.0 - 1e-12 <= tau_on <= 10.0 + 1e-12
                assert 0.0 - 1e-12 <= tau_off <= 10.0 + 1e-12

    def test_monotone_best_so_far(self):
        p = make_params()
        park, pas = pressure_demand(180)
        sol = solve_open_loop(MacroState(), park, pas, p, SMALL, (0.0, 0.0), (0.0, 0.0))
        hist = sol.best_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("n", [170, 360])
    def test_forecast_of_another_length_rejected(self, n):
        # 360 steps would also split into the 2 intervals' price rows
        park, pas = pressure_demand(n)
        want = rf"^the forecast has {n} macro steps, but the 2 prediction intervals have 180$"
        with pytest.raises(ValueError, match=want):
            solve_open_loop(MacroState(), park, pas, make_params(), SMALL, None, (0.0, 0.0))

    def test_objective_deterministic(self):
        p = make_params()
        park, pas = pressure_demand(180)
        a = solve_open_loop(MacroState(), park, pas, p, SMALL, (0.0, 0.0), (0.0, 0.0))
        b = solve_open_loop(MacroState(), park, pas, p, SMALL, (0.0, 0.0), (0.0, 0.0))
        assert a.objective == b.objective
        assert np.array_equal(a.prices, b.prices)


class TestPrefixReuse:
    def test_cached_solve_equals_uncached_and_simulates_fewer_steps(self, monkeypatch):
        # A10-sized: four 0.25-hr intervals over the 1-hr horizon, four
        # starts of 80 evaluations, from a mid-run state
        p = make_params()
        park, pas = pressure_demand(360)
        state = simulate_macro(park[:90], pas[:90], [(0.0, 0.0)], p).final_state
        cfg = replace(SMALL, n_intervals=4, n_starts=4, budget=80)
        simulated = [0]
        run = macromodel._run

        def counting(state, inflows, params, weights):
            acc, flows = run(state, inflows, params, weights)
            simulated[0] += len(flows) // 4
            return acc, flows

        monkeypatch.setattr(macromodel, "_run", counting)

        def solve():
            simulated[0] = 0
            sol = solve_open_loop(
                state, park, pas, p, cfg, None, (0.0, 0.0), extra_starts=[np.full(4, 2.0)]
            )
            return sol, simulated[0]

        cached, cached_steps = solve()
        simulate = mpc.simulate_macro

        def uncached(park, pas, prices, params, initial_state=None, cache=None):
            return simulate(park, pas, prices, params, initial_state)

        monkeypatch.setattr(mpc, "simulate_macro", uncached)
        fresh, fresh_steps = solve()
        assert cached.prices.tobytes() == fresh.prices.tobytes()
        assert (cached.objective, cached.evaluations, cached.indifferent) == (
            fresh.objective, fresh.evaluations, fresh.indifferent
        )
        assert np.array(cached.best_history).tobytes() == np.array(fresh.best_history).tobytes()
        assert not fresh.indifferent
        assert cached_steps <= 0.8 * fresh_steps


class TestFullHorizon:
    def test_static_is_constant(self):
        p = make_params()
        park, pas = pressure_demand()
        sol = solve_full_horizon(park, pas, p, SMALL, (0.0, 0.0), "static", MacroState())
        assert len(sol.prices) == 1

    def test_dynamic_never_worse_than_static(self):
        p = make_params()
        park, pas = pressure_demand()
        dyn = solve_full_horizon(park, pas, p, SMALL, (0.0, 0.0), "dynamic", MacroState())
        sta = solve_full_horizon(park, pas, p, SMALL, (0.0, 0.0), "static", MacroState())
        assert dyn.objective <= sta.objective + 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve_full_horizon(
                np.zeros(36), np.zeros(36), make_params(), SMALL, (0, 0), "wavy", MacroState()
            )


class ProtocolPlant:
    """A plant with the three methods of the plant protocol and nothing else."""

    def __init__(self, plant):
        self.read_state = plant.read_state
        self.advance = plant.advance
        self.realized_n_c = plant.realized_n_c


class TestMpcLoopMacroPlant:
    def test_runs_on_the_three_method_protocol(self):
        p = make_params()
        park, pas = pressure_demand()
        direct = mpc_loop(MacroPlant(p, park, pas), p, SMALL, park, pas, (0.0, 0.0))
        plant = ProtocolPlant(MacroPlant(p, park, pas))
        log = mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
        assert len(log) == len(direct) == 4
        for it, ref in zip(log, direct):
            assert (it.t_hr, it.applied, it.predicted_objective, it.evaluations) == (
                ref.t_hr, ref.applied, ref.predicted_objective, ref.evaluations
            )
            assert np.array_equal(it.predicted_n_c, ref.predicted_n_c)
            assert np.array_equal(it.realized_n_c, ref.realized_n_c)

    def test_horizon_is_the_forecast_length(self):
        p = make_params()
        park, pas = pressure_demand(216)  # 0.6 hr, not a whole number of 0.25-hr intervals
        with pytest.raises(ValueError, match="horizon 0.6 hr is not a whole"):
            mpc_loop(MacroPlant(p, park, pas), p, SMALL, park, pas, (0.0, 0.0))

    def test_four_solves_per_hour(self):
        p = make_params()
        park, pas = pressure_demand()
        plant = MacroPlant(p, park, pas)
        log = mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
        assert len(log) == 4

    def test_closed_loop_replay_identity(self):
        # with the macro model as its own plant, replaying the applied
        # schedule open loop reproduces the realized objective exactly
        p = make_params()
        park, pas = pressure_demand()
        plant = MacroPlant(p, park, pas)
        log = mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
        rows = np.repeat([it.applied for it in log], SMALL.steps_per_interval(p.dt), axis=0)
        traj = simulate_macro(park, pas, rows, p)
        assert objective_ineffective_cruising(traj, p) == pytest.approx(
            plant.ineffective_cruising(), abs=1e-9
        )

    def test_never_worse_than_no_control(self):
        p = make_params()
        park, pas = pressure_demand()
        base = MacroPlant(p, park, pas)
        base.advance((0.0, 0.0), 1.0)
        plant = MacroPlant(p, park, pas)
        mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
        assert plant.ineffective_cruising() <= base.ineffective_cruising() + 1e-9

    def test_prediction_matches_realization_on_macro_plant(self):
        p = make_params()
        park, pas = pressure_demand()
        plant = MacroPlant(p, park, pas)
        log = mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
        for it in log:
            assert it.realized_n_c == pytest.approx(it.predicted_n_c, abs=1e-9)


@pytest.fixture(scope="module")
def setup():
    net = desk_network(rows=4, cols=4, total_spots=100, lot_capacity=30)
    sc = validation_scenario(parker_count=200, passer_count=700, captive_spots=40)
    from parkdyn.calibration import calibrate

    runs = [Simulation(net, sc, s).run() for s in range(3)]
    report = calibrate(runs)
    params = macro_params_from_calibration(report, net, sc, DT)
    return net, sc, params


class TestMicroPlant:
    def test_state_pull_counts_families(self, setup):
        net, sc, params = setup
        sim = Simulation(net, sc, 0)
        plant = MicroPlant(sim, params)
        plant.advance((sc.tau_on, sc.tau_off), 0.25)
        state = plant.read_state()
        on_net = len(sim.on_link())
        assert state.n_active() == pytest.approx(on_net)
        assert state.n_on == sim.occupied_on
        parked_off = sum(veh.family == "vi" for _, _, veh in sim.parked_heap)
        assert state.n_off == sim.family_count["vi"] == parked_off
        assert state.k == int(round(0.25 / params.dt))

    def test_pulled_state_advances_cleanly(self, setup):
        net, sc, params = setup
        sim = Simulation(net, sc, 1)
        plant = MicroPlant(sim, params)
        plant.advance((sc.tau_on, sc.tau_off), 0.5)
        state = plant.read_state()
        n = 90
        traj = simulate_macro(
            uniform_profile(50, n), uniform_profile(150, n), np.zeros((n, 2)), params,
            initial_state=state,
        )
        assert traj.n_steps == n  # no conservation error raised

    def test_closed_loop_runs_on_micro_plant(self, setup):
        net, sc, params = setup
        from parkdyn.scenarios import macro_demand

        park, pas = macro_demand(sc, params.dt)
        sim = Simulation(net, sc, 2)
        plant = MicroPlant(sim, params)
        log = mpc_loop(plant, params, SMALL, park, pas, (0.0, 0.0))
        assert len(log) == 4
        metrics = time_metrics(sim.series(), sim.dt, sim.l_off, sim.v_off_f)
        assert metrics["ineffective_cruising_veh_hr"] >= 0.0
        assert sim.step_i == sim.n_steps
