"""Desk-scale scenario builders shared by the experiment scripts and tests."""

from __future__ import annotations

import numpy as np

from . import macromodel
from .calibration import CalibrationReport
from .macromodel import MacroParams, MacroState, MacroTrajectories, uniform_profile
from .microsim import GuidanceConfig, ScenarioConfig, whole_steps
from .network import (
    DurationDistribution,
    Network,
    OffStreetLot,
    add_lot,
    build_grid,
    redistribute_parking,
)


def desk_network(
    rows: int = 6,
    cols: int = 6,
    link_length: float = 0.1,
    v_f: float = 50.0,
    k_j: float = 100.0,
    total_spots: int | None = 300,
    lot_capacity: int = 50,
    lot_circuit: float = 0.3,
    lot_speed: float = 15.0,
    upper_share: float | None = None,
    supply_fraction: float = 1.0,
    spots_per_link: int = 0,
    spot_spacing: float = 0.0,
    lot_entry: str | None = None,
) -> Network:
    """Square grid with an exact on-street spot total and one off-street lot
    on an upper-region link (the region the guidance experiments saturate);
    the network of ``parkdyn net build``.

    ``upper_share`` skews the spot supply toward the lower region (region 0),
    mirroring the capacity imbalance the regional guidance exploits;
    ``supply_fraction`` concentrates the spots on a subset of links so that
    uninformed search has to hunt for the supplied streets. With
    ``total_spots`` None each link keeps ``build_grid``'s ``spots_per_link``
    spots; ``lot_entry`` overrides the lot's middle upper-region entry link."""
    net = build_grid(rows, cols, link_length, v_f, k_j, spots_per_link, spot_spacing)
    if total_spots is not None:
        shares = None if upper_share is None else {0: 1.0 - upper_share, 1: upper_share}
        net = redistribute_parking(net, total_spots, shares, supply_fraction)
    if lot_capacity:  # a negative capacity reaches the lot's own check
        upper = sorted(lid for lid, r in net.region_assignment.items() if r == 1)
        entry = lot_entry or (upper[len(upper) // 2] if upper else sorted(net.links)[0])
        net = add_lot(
            net,
            OffStreetLot(
                "lot",
                entry_link=entry,
                capacity=lot_capacity,
                circuit_length=lot_circuit,
                internal_cruise_speed=lot_speed,
            ),
        )
    return net


def validation_scenario(
    parker_count: int = 400,
    passer_count: int = 2800,
    captive_spots: int = 130,
    cruise_speed: float = 30.0,
    alpha_off: float = -1.0,
    beta: float = 0.3,
    guidance: GuidanceConfig | None = None,
) -> ScenarioConfig:
    """Macro-vs-micro consistency scenario: high late-run occupancy with a
    filling lot, no vacating spots (the macro has no vacation flow)."""
    return ScenarioConfig(
        parker_count=parker_count,
        passer_count=passer_count,
        alpha_off=alpha_off,
        beta=beta,
        duration=DurationDistribution("uniform", 0.0, 1.0),
        cruise_speed=cruise_speed,
        captive_spots=captive_spots,
        dt_sim=1.0,
        horizon=1.0,
        guidance=guidance or GuidanceConfig(),
    )


def macro_params_from_calibration(
    report: CalibrationReport,
    network: Network,
    scenario: ScenarioConfig,
    dt: float,
) -> MacroParams:
    """MacroParams with calibrated curves and the scenario's known constants."""
    lot = network.lot  # without one, placeholders: MacroParams needs l_off, v_off_f > 0
    return MacroParams(
        nfd=report.nfd,
        distance_model=report.distance_model,
        duration=scenario.duration,
        N_on=network.total_parking_capacity,
        N_off=lot.capacity if lot else 0,
        l_m_on=report.l_m_on,
        l_m_off=report.l_m_off,
        l_m_pass=report.l_m_pass,
        l_off=lot.circuit_length if lot else 0.3,
        v_on_f=scenario.cruise_speed,
        v_off_f=lot.internal_cruise_speed if lot else 15.0,
        dt=dt,
        alpha_on=scenario.alpha_on,
        alpha_off=scenario.alpha_off,
        beta=scenario.beta,
    )


def macro_initial_state(scenario: ScenarioConfig, capacity: int) -> MacroState:
    """Captive (and any pre-occupied) spots enter as initially parked mass
    with no re-departure cohorts behind them; they must fit the ``capacity``
    on-street spots, as in the micro simulation."""
    blocked = float(scenario.blocked_spots(capacity))
    return MacroState(n_on=blocked, cum_inflow=blocked)


def macro_demand(scenario: ScenarioConfig, dt: float):
    """Expected per-step (park, pass) inflows matching the micro demand; the
    macro step ``dt`` (hr) must divide the scenario horizon."""
    n_steps = whole_steps(
        scenario.horizon * 3600.0, dt * 3600.0, "scenario horizon", "macro step"
    )

    def profile(total, kind):
        if kind == "uniform":
            return uniform_profile(total, n_steps)
        edges = np.linspace(0.0, 1.0, n_steps + 1)
        cdf = edges**2 if kind == "ramp-up" else 1.0 - (1.0 - edges) ** 2
        return total * np.diff(cdf)

    return (
        profile(scenario.parker_count, scenario.parker_profile),
        profile(scenario.passer_count, scenario.passer_profile),
    )


def baseline_macro_run(
    report: CalibrationReport,
    network: Network,
    scenario: ScenarioConfig,
    dt: float,
) -> MacroTrajectories:
    """The calibrated macro model over the scenario's expected demand at its
    base prices, from the captive initial state."""
    params = macro_params_from_calibration(report, network, scenario, dt)
    park, pas = macro_demand(scenario, dt)
    prices = np.tile((scenario.tau_on, scenario.tau_off), (len(park), 1))
    # through the module, so that a replaced macromodel.simulate_macro sees the run
    return macromodel.simulate_macro(
        park, pas, prices, params, initial_state=macro_initial_state(scenario, params.N_on)
    )
