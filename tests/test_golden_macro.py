"""Golden SHA-256 digests of the macro model, the pricing solver and the
closed loop for fixed inputs.

Each digest hashes the ``tobytes()`` of the outputs' float64 arrays, so it
pins them bit for bit. A change that moves a digest is a behaviour change and
must say so; do not regenerate them to make a refactor pass.
"""

import hashlib

import numpy as np
import pytest

from parkdyn.calibration import CalibrationReport
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import MacroParams, MacroState, NfdModel, simulate_macro, uniform_profile
from parkdyn.microsim import Simulation
from parkdyn.mpc import MacroPlant, MicroPlant, MpcConfig, mpc_loop, solve_open_loop
from parkdyn.network import DurationDistribution
from parkdyn.scenarios import (
    desk_network,
    macro_demand,
    macro_params_from_calibration,
    validation_scenario,
)

GOLDEN = {
    # one hour at dt 10 s (k_off = 7) and at dt 200 s (k_off = 0); the lot overflows
    "simulate_dt10": "039602837d2ccc48260bfa5a7a4ad48969f46710dca3440397428a54f37ff457",
    "simulate_dt200": "beb5db10dc2ec1cdb68630d1acc31636a44f93e325d4113cd24e60154965ed69",
    # prices, objective, evaluations and best_history of one solve
    "solve_open_loop": "da6f3705ffe6e1ccee4a58a1cd9f74885e8ba19dd0be6e54aa7ef17e53fc3b56",
    # the closed loop on the macro model as its own plant
    "mpc_loop_macro_plant": "049ae4598fc0c3c8d503006b4bd724ad03b9da75a1834d06ebdfe2d2cf121104",
    # MicroPlant.read_state at t = 1800 s on the desk, then 180 macro steps
    "micro_pull": "86c8a147325f44f226e3f5cb590cf6e2c841b112faf839bd63fa296c409079dd",
}

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


def _params(**kw):
    defaults = dict(
        nfd=NfdModel(48.0, 180.0, 80.0),
        distance_model=DistanceModel("exp-distance", {"a": 5e-4, "b": 7.5}),
        duration=DurationDistribution("uniform", 0.0, 1.0),
        N_on=150,
        N_off=40,
        l_m_on=0.45,
        l_m_off=0.5,
        l_m_pass=0.48,
        l_off=0.3,
        v_on_f=30.0,
        v_off_f=15.0,
        dt=10.0 / 3600.0,
        alpha_on=0.0,
        alpha_off=-1.0,
        beta=0.3,
    )
    defaults.update(kw)
    return MacroParams(**defaults)


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.asarray(p, dtype=float).tobytes())
    return h.hexdigest()


def _state_parts(s: MacroState):
    scalars = [s.n_m_off, s.n_m_on, s.n_m_pass, s.n_c, s.n_off, s.n_on, s.k]
    return [scalars + [s.cum_inflow, s.cum_exit], s.o_c_hist, s.o_off_hist, s.q_off_on_hist]


def _traj_parts(traj):
    names = ("t", "n_m_on", "n_m_off", "n_m_pass", "n_c", "n_on", "n_off", "n", "v", "O_on",
             "o_c", "q_off_on", "q_out_on", "q_out_off")
    return [getattr(traj, name) for name in names] + _state_parts(traj.final_state)


def _simulate(dt_s):
    p = _params(dt=dt_s / 3600.0)
    n = int(round(1.0 / p.dt))
    prices = np.tile((1.0, 0.0), (n, 1))
    traj = simulate_macro(uniform_profile(600, n), uniform_profile(1500, n), prices, p)
    assert traj.q_off_on.max() > 0.0  # the lot overflows
    return p.k_off, traj


def digest_simulate_dt10():
    k_off, traj = _simulate(10.0)
    assert k_off == 7
    return _digest(*_traj_parts(traj))


def digest_simulate_dt200():
    k_off, traj = _simulate(200.0)
    assert k_off == 0
    return _digest(*_traj_parts(traj))


def digest_solve_open_loop():
    p = _params()
    park, pas = uniform_profile(500, 180), uniform_profile(1500, 180)
    sol = solve_open_loop(MacroState(), park, pas, p, SMALL, (0.0, 0.0), (0.0, 0.0))
    return _digest(sol.prices, [sol.objective, sol.evaluations], sol.best_history)


def digest_mpc_loop_macro_plant():
    p = _params()
    park, pas = uniform_profile(500, 360), uniform_profile(1500, 360)
    plant = MacroPlant(p, park, pas, (0.0, 0.0))
    log = mpc_loop(plant, p, SMALL, park, pas, (0.0, 0.0))
    parts = [[it.applied for it in log], [plant.ineffective_cruising()]]
    for it in log:
        parts += [[it.t_hr, it.predicted_objective, it.evaluations], it.applied,
                  it.predicted_n_c, it.realized_n_c]
    return _digest(*parts, *_state_parts(plant.state))


def digest_micro_pull():
    # a 30-car lot overflows by t = 1800 s on seed 1, the last time within the
    # circuit delay of the pull
    net, sc = desk_network(lot_capacity=30), validation_scenario()
    report = CalibrationReport(
        nfd=NfdModel(64.6, 72.4, 49.2),
        nfd_diag={},
        l_m_on=0.43,
        l_m_off=0.49,
        l_m_pass=0.47,
        distance_model=DistanceModel("exp-distance", {"a": 6.6e-4, "b": 7.2}),
        distance_diag={},
    )
    p = macro_params_from_calibration(report, net, sc, 10.0 / 3600.0)
    sim = Simulation(net, sc, 1)
    plant = MicroPlant(sim, p)
    plant.advance(0.5)
    state = plant.read_state()
    assert state.k == 180 and state.in_circuit(p.k_off) > 0.0
    park, pas = macro_demand(sc, p.dt)
    traj = simulate_macro(park[180:], pas[180:], np.zeros((180, 2)), p, initial_state=state)
    return _digest(*_state_parts(state), *_traj_parts(traj))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_macro_outputs_match_golden_digests(name):
    assert globals()[f"digest_{name}"]() == GOLDEN[name]
