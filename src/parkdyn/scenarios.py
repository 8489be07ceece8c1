"""Desk-scale scenario builders shared by the experiment scripts and tests:
``desk_network``, the one grid builder, lays out a grid, its on-street spots
and its lot in one pass; the others build scenarios and the macro model's
inputs from them."""

from __future__ import annotations

import math

import numpy as np

from . import macromodel
from .calibration import CalibrationReport
from .macromodel import MacroParams, MacroState, MacroTrajectories, uniform_profile
from .microsim import GuidanceConfig, ScenarioConfig, whole_steps
from .network import (UNIT, Domain, DurationDistribution, Link, Network, Node, OffStreetLot,
                      at_least, check)

# the domains of desk_network's own parameters, which net build's flags take
GRID_DOMAINS = {"rows": at_least(2), "cols": at_least(2), "total_spots": at_least(0),
                "upper_share": UNIT,
                "supply_fraction": Domain("must lie in (0, 1]", lambda x: 0 < x <= 1)}


def desk_network(
    rows: int = 6,
    cols: int = 6,
    link_length: float = 0.1,
    v_f: float = 50.0,
    k_j: float = 100.0,
    total_spots: int = 300,
    lot_capacity: int = 50,
    lot_circuit: float = 0.3,
    lot_speed: float = 15.0,
    upper_share: float | None = None,
    supply_fraction: float = 1.0,
    lot_entry: str | None = None,
) -> Network:
    """Bidirectional grid with an exact on-street spot total and,
    unless ``lot_capacity`` is 0, one off-street lot on an upper-region link
    (the region the guidance experiments saturate); the network of
    ``parkdyn net build``, whose flags default to these parameters, and the
    one grid builder of the package.

    Node ``r * cols + c`` is at row ``r``, column ``c``. A link is in region 1
    when its row midpoint lies in the upper half of the rows, else in
    region 0. ``upper_share`` gives region 1 that share of the spots and
    region 0 the rest, the capacity imbalance the regional guidance
    exploits; without it the spots spread over all links as one group.
    ``supply_fraction`` < 1 concentrates each group's spots on an evenly
    spaced subset of its links, so that uninformed search has to hunt for
    the supplied streets. Each supplied link gets an equal share, and the
    remainder goes one spot each to the first in sorted-id order. The lot
    is on ``lot_entry``, or else on the middle of the sorted region-1 links.
    """
    given = locals()  # the parameters: no other name is bound yet
    for name, domain in GRID_DOMAINS.items():
        if given[name] is not None:  # upper_share None: one group
            check(name, given[name], domain)
    ends: dict[str, tuple[int, int]] = {}  # link id -> (from node, to node)
    regions: dict[str, int] = {}
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            streets = [(u + 1, r)] if c + 1 < cols else []
            if r + 1 < rows:
                streets.append((u + cols, r + 0.5))
            for v, row_mid in streets:
                for a, b in ((u, v), (v, u)):
                    ends[f"{a}-{b}"] = (a, b)
                    regions[f"{a}-{b}"] = 1 if row_mid >= rows / 2.0 else 0
    lids = sorted(ends)
    upper = [lid for lid in lids if regions[lid] == 1]  # never empty: it holds the top row
    if upper_share is None:
        groups = [(lids, total_spots)]
    else:
        lower_spots = round(total_spots * (1.0 - upper_share))
        lower = [lid for lid in lids if regions[lid] == 0]
        groups = [(lower, lower_spots), (upper, total_spots - lower_spots)]
    spots = dict.fromkeys(lids, 0)
    for group, group_spots in groups:
        keep = max(1, round(len(group) * supply_fraction))
        stride = len(group) / keep
        supplied = [group[int(i * stride)] for i in range(keep)]
        base, extra = divmod(group_spots, keep)
        for i, lid in enumerate(supplied):
            spots[lid] = base + (1 if i < extra else 0)
    links = [
        Link(lid, *ends[lid], link_length, v_f, k_j, parking_capacity=spots[lid])
        for lid in lids
    ]
    lot = None
    if lot_capacity:  # a negative capacity reaches the lot's own check
        lot = OffStreetLot(
            "lot",
            entry_link=lot_entry or upper[len(upper) // 2],
            capacity=lot_capacity,
            circuit_length=lot_circuit,
            internal_cruise_speed=lot_speed,
        )
    nodes = [Node(nid) for nid in range(rows * cols)]
    return Network(nodes, links, lot=lot, region_assignment=regions)


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
    """MacroParams with calibrated curves and the scenario's known constants.

    Parkers choose only among the facilities the network has, as in the
    micro simulation: a missing one gets utility -inf, so no demand."""
    lot = network.lot  # without one, placeholders: MacroParams needs l_off, v_off_f > 0
    on_street = network.total_parking_capacity > 0
    scenario.check_supply(network)
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
        # never both -inf, whose difference is nan
        alpha_on=scenario.alpha_on if on_street or lot is None else -math.inf,
        alpha_off=scenario.alpha_off if lot is not None or not on_street else -math.inf,
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
    # through the module, so that a replaced macromodel.simulate_macro sees the run
    return macromodel.simulate_macro(
        park, pas, [(scenario.tau_on, scenario.tau_off)], params,
        initial_state=macro_initial_state(scenario, params.N_on),
    )
