"""Rolling-horizon parking-pricing optimization on the macro model.

At every control boundary the loop pulls the plant's family accumulations
into a macro state, solves a finite-horizon pricing problem with a
multi-start pattern search, applies the first interval's prices to the
plant, and advances. Prices are box-bounded and consecutive intervals may
differ by at most a smoothing gap (including the step from the last applied
price).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .macromodel import (
    MacroParams,
    MacroState,
    MacroTrajectories,
    PrefixCache,
    simulate_macro,
)
from .microsim import Simulation, cruising_veh_hr, macro_blocks, whole_steps

FACILITIES = ("on", "off")


@dataclass(frozen=True)
class MpcConfig:
    """Pricing-loop settings. The prediction horizon is ``n_intervals``
    control intervals, each a whole number of macro steps (``MacroParams.dt``)."""

    control_interval: float  # hr
    n_intervals: int  # pricing intervals optimized simultaneously
    # Multi-starts per solve. The anchor (last applied prices), tau_min and
    # tau_max starts always run, plus any extra starts the caller passes;
    # random starts (seeded 0 in every solve) fill up to n_starts. So
    # n_starts < 3 still runs three.
    n_starts: int
    budget: int  # objective evaluations per start
    controlled: tuple[str, ...]
    tau_min: float
    tau_max: float
    tau_gap: float

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError(f"prediction intervals must be >= 1, got {self.n_intervals}")
        box = (self.tau_min, self.tau_max, self.tau_gap)
        if not all(map(math.isfinite, box)):
            raise ValueError(f"price box bounds must be finite, got {box}")
        if self.tau_gap < 0 or self.tau_max < self.tau_min:
            raise ValueError("infeasible price constraint box")
        if not self.controlled or any(f not in FACILITIES for f in self.controlled):
            raise ValueError("controlled facilities must be a non-empty subset of on/off")

    def steps_per_interval(self, dt: float) -> int:
        """Macro steps of ``dt`` hr in one control interval."""
        return whole_steps(
            self.control_interval * 3600.0, dt * 3600.0, "control interval", "macro step"
        )

    def intervals_in(self, horizon: float) -> int:
        """Control intervals in a run of ``horizon`` hr."""
        return whole_steps(horizon, self.control_interval, "horizon", "control interval", "hr")


def objective_ineffective_cruising(traj: MacroTrajectories, params: MacroParams) -> float:
    """veh-hr of on-street cruising plus the full-lot circuit deadweight loss.

    Cruising of vehicles that manage to park off street is not counted."""
    on_street, deadweight = cruising_veh_hr(
        traj.n_c[:-1], traj.q_off_on, params.dt, 1.0, params.l_off, params.v_off_f
    )
    return on_street + deadweight


def repair_schedule(
    raw: np.ndarray,
    prev: np.ndarray | None,
    tau_min: float,
    tau_max: float,
    tau_gap: float,
) -> np.ndarray:
    """Project interval prices into the box and smoothing-gap feasible set.

    Projection runs forward per facility: each interval is clipped into the
    box intersected with [previous - gap, previous + gap]. With ``prev``
    None the first interval is only box-clipped.
    """
    out = np.array(raw, dtype=float)
    for col in range(out.shape[1]):
        last = None if prev is None else prev[col]
        for i in range(out.shape[0]):
            lo, hi = tau_min, tau_max
            if last is not None:
                lo = max(lo, last - tau_gap)
                hi = min(hi, last + tau_gap)
            out[i, col] = min(max(out[i, col], lo), hi)
            last = out[i, col]
    return out


def _pattern_search(f, x0: np.ndarray, repair, budget: int, init_step: float):
    """Coordinate pattern search with first-improvement polling, until the
    budget is spent or the step falls below 0.01.

    Returns (best_x, best_f, history of best values, evaluations used)."""
    x = repair(x0)
    fx = f(x)
    evals = 1
    history = [fx]
    step = init_step
    dims = x.size
    while evals < budget and step >= 0.01:
        improved = False
        for d in range(dims):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = x.copy()
                cand.flat[d] += sign * step
                cand = repair(cand)
                if np.allclose(cand, x):
                    continue
                fc = f(cand)
                evals += 1
                history.append(min(history[-1], fc))
                if fc < fx - 1e-12:
                    x, fx = cand, fc
                    improved = True
                    break
            if evals >= budget:
                break
        if not improved:
            step *= 0.5
    return x, fx, history, evals


@dataclass
class OpenLoopSolution:
    prices: np.ndarray  # (n_intervals, 2): one (tau_on, tau_off) row per interval
    objective: float
    evaluations: int
    indifferent: bool
    best_history: list[float]


def solve_open_loop(
    state: MacroState,
    park_forecast: np.ndarray,
    pass_forecast: np.ndarray,
    params: MacroParams,
    config: MpcConfig,
    prior_prices: tuple[float, float] | None,
    base_prices: tuple[float, float],
    extra_starts: list[np.ndarray] | None = None,
) -> OpenLoopSolution:
    """Multi-start pattern search over the interval prices of the horizon.

    ``prior_prices`` anchor the smoothing gap to the last applied interval
    (None for one-shot full-horizon problems, whose first interval is only
    box-bounded). Uncontrolled facilities stay at ``base_prices``. Global
    optimality is not guaranteed; feasibility of the controlled prices is.
    """
    n_int = config.n_intervals
    steps = n_int * config.steps_per_interval(params.dt)
    if len(park_forecast) != steps:
        raise ValueError(f"the forecast has {len(park_forecast)} macro steps, but the "
                         f"{n_int} prediction intervals have {steps}")
    cols = [FACILITIES.index(fac) for fac in config.controlled]
    prev = None if prior_prices is None else np.array(prior_prices, dtype=float)[cols]
    base = np.asarray(base_prices, dtype=float)

    def full_matrix(x: np.ndarray) -> np.ndarray:
        mat = np.full((n_int, 2), base)
        mat[:, cols] = x.reshape(n_int, len(cols))
        return mat

    def repair(x: np.ndarray) -> np.ndarray:
        block = x.reshape(n_int, len(cols))
        fixed = repair_schedule(block, prev, config.tau_min, config.tau_max, config.tau_gap)
        return fixed.reshape(-1)

    cache: dict[bytes, float] = {}
    # a candidate differs from the incumbent in few intervals, so most
    # evaluations resume from a prefix an earlier one simulated
    prefixes = PrefixCache()

    def evaluate(x: np.ndarray) -> float:
        key = x.tobytes()
        if key in cache:
            return cache[key]
        traj = simulate_macro(
            park_forecast, pass_forecast, full_matrix(x), params, state, prefixes
        )
        val = objective_ineffective_cruising(traj, params)
        cache[key] = val
        return val

    dim = n_int * len(cols)
    rng = np.random.default_rng(0)
    starts = [np.tile(prev if prev is not None else base[cols], n_int)]
    starts.append(np.full(dim, config.tau_min, dtype=float))
    starts.append(np.full(dim, config.tau_max, dtype=float))
    if extra_starts:
        starts.extend(np.asarray(s, dtype=float).reshape(-1) for s in extra_starts)
    while len(starts) < config.n_starts:
        starts.append(rng.uniform(config.tau_min, config.tau_max, size=dim))

    best_x, best_f, evals_total = None, math.inf, 0
    history: list[float] = []
    init_step = max((config.tau_max - config.tau_min) / 4.0, 0.25)
    for x0 in starts:
        x, fx, hist, used = _pattern_search(evaluate, x0, repair, config.budget, init_step)
        evals_total += used
        history.extend(min(h, best_f) for h in hist)
        if fx < best_f:
            best_x, best_f = x, fx

    values = list(cache.values())
    indifferent = (max(values) - min(values)) <= 1e-9 * max(1.0, abs(best_f))
    return OpenLoopSolution(full_matrix(best_x), best_f, evals_total, indifferent, history)


def solve_full_horizon(
    park_profile: np.ndarray,
    pass_profile: np.ndarray,
    params: MacroParams,
    config: MpcConfig,
    base_prices: tuple[float, float],
    mode: str,
    initial_state: MacroState,
) -> OpenLoopSolution:
    """One optimization over the whole horizon of the demand profiles:
    time-varying prices in "dynamic" mode, a single constant price in "static" mode.

    The dynamic solve is seeded with the static optimum, so its objective can
    never exceed the static one."""
    if mode not in ("dynamic", "static"):
        raise ValueError(f"unknown mode {mode!r}")
    horizon = len(park_profile) * params.dt
    n_int_dyn = config.intervals_in(horizon)
    static_cfg = replace(config, n_intervals=1, control_interval=horizon)
    static = solve_open_loop(
        initial_state, park_profile, pass_profile, params, static_cfg, None, base_prices
    )
    if mode == "static":
        return static
    dyn_cfg = replace(config, n_intervals=n_int_dyn)
    seed_start = np.tile(
        [static.prices[0][FACILITIES.index(f)] for f in config.controlled], n_int_dyn
    )
    return solve_open_loop(
        initial_state,
        park_profile,
        pass_profile,
        params,
        dyn_cfg,
        None,
        base_prices,
        extra_starts=[seed_start],
    )


# ------------------------------------------------------------------ plants


class MacroPlant:
    """The macro model itself as the controlled plant (for self-consistency
    checks and fast closed-loop experiments)."""

    def __init__(self, params: MacroParams, park_profile, pass_profile):
        self.params = params
        self.park = np.asarray(park_profile, dtype=float)
        self.pazz = np.asarray(pass_profile, dtype=float)
        self.state = MacroState()
        self.step = 0
        self.n_c_steps: list[float] = []

    def read_state(self) -> MacroState:
        return self.state.copy()

    def advance(self, prices, interval_hr: float):
        n = whole_steps(interval_hr * 3600.0, self.params.dt * 3600.0, "interval", "macro step")
        lo, hi = self.step, min(self.step + n, len(self.park))
        traj = simulate_macro(
            self.park[lo:hi], self.pazz[lo:hi], [prices], self.params, initial_state=self.state
        )
        self.n_c_steps.extend(traj.n_c[:-1].tolist())
        self.state = traj.final_state
        self.step = hi

    def ineffective_cruising(self) -> float:
        p = self.params
        on_street, deadweight = cruising_veh_hr(
            self.n_c_steps, self.state.q_off_on_hist[1:], p.dt, 1.0, p.l_off, p.v_off_f
        )
        return on_street + deadweight

    def realized_n_c(self, lo: int, n: int) -> np.ndarray:
        return np.asarray(self.n_c_steps[lo : lo + n])


class MicroPlant:
    """A live micro-simulation exposed through the plant protocol.

    The simulation's family ledger maps directly onto the macro
    accumulations (its moving-to-off family already includes the lot
    circuit); the per-step parked and overflow series are re-binned to the
    macro step to seed the re-departure cohorts and the circuit pipeline.
    Cruising distance already traveled is discarded, a known residual source.
    """

    def __init__(self, sim: Simulation, params: MacroParams):
        self.sim = sim
        self.params = params

    @functools.cached_property
    def _bin(self) -> int:
        # checked at the first pull, so that a plant that is only advanced takes any macro step
        return whole_steps(self.params.dt * 3600.0, self.sim.dt, "macro step", "micro step")

    def read_state(self) -> MacroState:
        sim = self.sim
        fam = sim.family_count
        series = sim.series()
        parked_on, parked_off, overflow = (
            np.append(0.0, macro_blocks(series[c], self._bin).sum(axis=1))
            for c in ("parked_on", "parked_off", "overflow")
        )
        state = MacroState(
            n_m_off=float(fam["ii"]),
            n_m_on=float(fam["i"]),
            n_m_pass=float(fam["iii"]),
            n_c=float(fam["iv"]),
            n_off=float(fam["vi"]),
            n_on=float(sim.occupied_on),
            k=len(parked_on) - 1,
            o_c_hist=parked_on,
            o_off_hist=parked_off,
            q_off_on_hist=overflow,
        )
        # seed the macro balance identity at the pull point (captive spots
        # count in n_on but are not vehicles, so the sim's own injected
        # total does not apply)
        state.cum_inflow = state.held(self.params.k_off)
        return state

    def advance(self, prices, interval_hr: float):
        self.sim.set_prices(*prices)
        self.sim.run_until(self.sim.t + interval_hr * 3600.0)

    def realized_n_c(self, lo: int, n: int) -> np.ndarray:
        return macro_blocks(self.sim.series()["n_iv"], self._bin)[lo : lo + n].mean(axis=1)


@dataclass
class MpcIteration:
    t_hr: float
    applied: tuple[float, float]
    predicted_objective: float
    evaluations: int
    predicted_n_c: np.ndarray
    realized_n_c: np.ndarray


def mpc_loop(
    plant,
    params: MacroParams,
    config: MpcConfig,
    park_forecast: np.ndarray,
    pass_forecast: np.ndarray,
    base_prices: tuple[float, float],
) -> list[MpcIteration]:
    """Closed-loop rolling-horizon control of ``plant``; returns one record
    per control interval.

    The plant (``MacroPlant`` or ``MicroPlant``) provides three methods:
    ``read_state()`` (a macro state at the current control boundary),
    ``advance(prices, interval_hr)`` (run ``interval_hr`` under one
    (tau_on, tau_off) row) and ``realized_n_c(lo, n)`` (mean cruisers over
    macro steps lo..lo+n-1).
    Each solve and the prediction start from copies of the state
    ``read_state()`` returns, so the loop never changes it.

    Every solve minimizes the predicted ineffective cruising
    (``objective_ineffective_cruising``) over the prediction horizon.

    ``park_forecast``/``pass_forecast`` are per-macro-step expected inflows
    over the full horizon (the known-demand assumption), so the run lasts
    ``len(park_forecast) * params.dt`` hr; the forecast beyond the horizon is
    zero-padded. The first optimized interval is applied at every control
    boundary. ``base_prices`` are the prices in force before the first
    boundary, and uncontrolled facilities keep them throughout.
    """
    steps_per = config.steps_per_interval(params.dt)
    horizon_steps = config.n_intervals * steps_per
    n_controls = config.intervals_in(len(park_forecast) * params.dt)
    # the last prediction reaches n_intervals - 1 intervals past the run
    pad = np.zeros(horizon_steps - steps_per)
    park_forecast = np.concatenate([np.asarray(park_forecast, dtype=float), pad])
    pass_forecast = np.concatenate([np.asarray(pass_forecast, dtype=float), pad])
    iterations: list[MpcIteration] = []
    prior = base_prices

    for K in range(n_controls):
        lo = K * steps_per
        park = park_forecast[lo : lo + horizon_steps]
        pazz = pass_forecast[lo : lo + horizon_steps]
        state = plant.read_state()
        sol = solve_open_loop(state, park, pazz, params, config, prior, base_prices)
        pred = simulate_macro(park, pazz, sol.prices, params, initial_state=state)
        applied = tuple(sol.prices[0])
        plant.advance(applied, config.control_interval)
        iterations.append(
            MpcIteration(
                t_hr=K * config.control_interval,
                applied=applied,
                predicted_objective=sol.objective,
                evaluations=sol.evaluations,
                predicted_n_c=pred.n_c[:steps_per],  # step starts, as the objective counts
                realized_n_c=plant.realized_n_c(lo, steps_per),
            )
        )
        prior = applied
    return iterations
