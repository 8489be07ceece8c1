"""Deterministic accumulation-based parking dynamics.

Six vehicle families exchange flows each step: three moving families (to
on-street parking, to the off-street lot, passing through), one cruising
family, and the two parked pools. Speeds come from a fitted NFD, outflows
from Little's formula, re-departures from the parking-duration distribution,
and a full lot spills searchers back onto the street after a fixed circuit
delay. All flows are fractional (veh per step).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .estimators import DistanceModel, evaluate_clamped
from .network import DurationDistribution


class ConservationError(RuntimeError):
    """Per-step mass balance failed beyond numerical tolerance."""


@dataclass(frozen=True)
class NfdModel:
    """Three-parameter logistic speed-accumulation curve."""

    v0: float  # km/hr
    n0: float  # veh
    w: float  # veh

    def __post_init__(self):
        if self.v0 <= 0 or self.w <= 0:
            raise ValueError("need v0 > 0 and w > 0")


def nfd_speed(model: NfdModel, n: float) -> float:
    if n < 0:
        raise ValueError("accumulation must be >= 0")
    z = (n - model.n0) / model.w
    if z > 700.0:
        return 0.0
    return model.v0 / (1.0 + math.exp(z))


@dataclass(frozen=True)
class MacroParams:
    nfd: NfdModel
    distance_model: DistanceModel  # occupancy -> expected cruise distance, km
    duration: DurationDistribution
    N_on: int
    N_off: int
    l_m_on: float  # km, mean moving distance of to-on-street vehicles
    l_m_off: float
    l_m_pass: float
    l_off: float  # km, one circuit of the lot
    v_on_f: float  # km/hr, desired on-street cruising speed
    v_off_f: float  # km/hr, in-lot cruising speed
    dt: float  # hr
    alpha_on: float = 0.0
    alpha_off: float = 0.0
    beta: float = 0.0  # 1/$, fee coefficient of the binary choice model

    def __post_init__(self):
        if min(self.N_on, self.N_off) < 0:
            raise ValueError("capacities must be >= 0")
        if min(self.l_m_on, self.l_m_off, self.l_m_pass, self.l_off) <= 0:
            raise ValueError("distances must be > 0")
        if min(self.v_on_f, self.v_off_f) <= 0 or self.dt <= 0:
            raise ValueError("speeds and dt must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @functools.cached_property
    def k_off(self) -> int:
        """Circuit delay in steps: nearest integer (half-up) to l_off/(v_off_f dt)."""
        return int(math.floor(self.l_off / (self.v_off_f * self.dt) + 0.5))

    def redeparture_weights(self, n_steps: int) -> np.ndarray:
        """The re-departure table ``macro_step`` reads, for up to n_steps + 1 steps."""
        return redeparture_table(self.duration, self.dt, n_steps)


@functools.lru_cache(maxsize=64)
def redeparture_table(duration: DurationDistribution, dt: float, n_steps: int) -> np.ndarray:
    """``duration.step_weights(dt, n_steps)`` reversed, so that lag 0 is last.

    The re-departure sum of step k dots the cohorts of steps 1..k-1 with the
    last k-1 entries. The array is shared by every caller with the same key,
    so it is read-only.
    """
    table = np.array(duration.step_weights(dt, n_steps)[::-1])
    table.flags.writeable = False
    return table


_HISTORIES = ("o_c_hist", "o_off_hist", "q_off_on_hist")


@dataclass
class MacroState:
    """Accumulations at the end of step k plus the three flow histories the
    dynamics read: the parked cohorts that re-depart (``o_c_hist`` on street,
    ``o_off_hist`` off street) and the lot overflow (``q_off_on_hist``), which
    re-enters the search after the circuit delay and is in the circuit until
    then.

    The off-street cohort of step i is the arrivals that actually parked,
    o_m_off(i) - q_off_on(i); it is stored as that difference.

    History arrays are step-indexed from 1; index 0 is padding so that
    ``o_c_hist[i]`` is the flow of step i. Every state the public API hands
    back has histories of exactly k + 1 entries. ``macro_step`` and
    ``simulate_macro`` give the state they advance new history buffers, sized
    for the steps they run, and fill only entries after k. So a state may
    share its histories with another, or view their first k + 1 entries, and
    no array a caller holds is ever written in place.
    """

    n_m_off: float = 0.0
    n_m_on: float = 0.0
    n_m_pass: float = 0.0
    n_c: float = 0.0
    n_off: float = 0.0
    n_on: float = 0.0
    k: int = 0
    o_c_hist: np.ndarray = field(default_factory=lambda: np.zeros(1))
    o_off_hist: np.ndarray = field(default_factory=lambda: np.zeros(1))
    q_off_on_hist: np.ndarray = field(default_factory=lambda: np.zeros(1))
    cum_inflow: float = 0.0
    cum_exit: float = 0.0

    def __post_init__(self):
        # a history given as a list becomes an array; an array is kept as is
        for name in _HISTORIES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def n_active(self) -> float:
        return self.n_m_off + self.n_m_on + self.n_m_pass + self.n_c

    def in_circuit(self, k_off: int) -> float:
        """Vehicles currently cruising out of the full lot (overflow pipeline)."""
        lo = max(1, self.k - k_off + 1)
        # left to right, as a plain loop: from Python 3.12 on, the builtin
        # sum compensates float rounding
        total = 0.0
        for q in self.q_off_on_hist[lo : self.k + 1].tolist():
            total += q
        return total

    def held(self, k_off: int) -> float:
        """Vehicles on the network, parked or in the lot circuit: with the
        exits, the total the mass balance compares with the inflow."""
        return self.n_active() + self.n_off + self.n_on + self.in_circuit(k_off)

    def copy(self) -> "MacroState":
        return replace(self)


def split_demand(
    total_inflow: float, tau_on: float, tau_off: float, params: MacroParams
) -> tuple[float, float]:
    """Binary-logit split of parking demand between on- and off-street."""
    return _split(total_inflow, _share_on(tau_on, tau_off, params))


def _share_on(tau_on: float, tau_off: float, params: MacroParams) -> float:
    """The on-street share of the binary-logit choice at the given prices."""
    u_on = params.alpha_on - params.beta * tau_on
    u_off = params.alpha_off - params.beta * tau_off
    try:
        return 1.0 / (1.0 + math.exp(u_off - u_on))
    except OverflowError:  # the logit limit: the lot takes all of it
        return 0.0


def _split(total_inflow: float, share_on: float) -> tuple[float, float]:
    if total_inflow < 0:
        raise ValueError("inflow must be >= 0")
    return total_inflow * share_on, total_inflow * (1.0 - share_on)


def redeparture_flows(
    o_c_hist,
    o_m_off_hist,
    q_off_on_hist,
    duration: DurationDistribution,
    k: int,
    dt: float,
) -> tuple[float, float]:
    """Expected re-departures during step k from every past parked cohort.

    Histories are sequences with ``hist[i]`` the flow of step i (index 0
    padding). The off-street cohort of step i is the arrivals that actually
    parked, o_m_off(i) - q_off_on(i).
    """
    if k < 2:
        return 0.0, 0.0
    q_on = 0.0
    q_off = 0.0
    for i in range(2, k + 1):
        w = duration.cdf((k - i + 1) * dt) - duration.cdf((k - i) * dt)
        if w == 0.0:
            continue
        q_on += o_c_hist[i - 1] * w
        q_off += (o_m_off_hist[i - 1] - q_off_on_hist[i - 1]) * w
    return q_on, q_off


def redeparture_flows_uniform(
    o_c_hist, o_m_off_hist, q_off_on_hist, horizon: float, k: int, dt: float
) -> tuple[float, float]:
    """Simplified re-departure flows for a uniform duration on [0, horizon]:
    every parked cohort re-departs at the constant rate dt/horizon."""
    if k < 2:
        return 0.0, 0.0
    rate = dt / horizon
    q_on = rate * sum(o_c_hist[1:k])
    q_off = rate * (sum(o_m_off_hist[1:k]) - sum(q_off_on_hist[1:k]))
    return q_on, q_off


def _settle(x: float, scale: float) -> float:
    # float dust from the balance arithmetic, not a logic clamp
    if x < 0.0:
        if x < -1e-9 * max(1.0, scale):
            raise ConservationError(f"negative accumulation {x}")
        return 0.0
    return x


class StepFlows(NamedTuple):
    """The flows of one macro step that callers record (veh per step)."""

    o_c: float  # cruisers that park on street
    q_off_on: float  # full-lot overflow, re-entering the search after k_off steps
    q_out_on: float  # on-street re-departures
    q_out_off: float  # off-street re-departures


def macro_step(
    state: MacroState,
    q_in_on: float,
    q_in_off: float,
    q_in_pass: float,
    params: MacroParams,
    redeparture_weights: np.ndarray,
) -> StepFlows:
    """Advance the state by one step (in place) and return the step's flows.

    Moving vehicles leave their families by Little's formula, sharing the
    moving production in proportion to their accumulations; each outflow is
    capped by the vehicles available this step. Arrivals at a full lot
    overflow back to the street. The cruising outflow is capped by the
    cruisers available and by the free on-street spots (including spots
    vacated by this step's re-departures).

    ``redeparture_weights`` is ``params.redeparture_weights(n)`` with n at
    least the new step index minus one; ``redeparture_flows`` is the loop
    form of the same sum. The state's histories are replaced by new arrays
    one entry longer, so arrays the caller holds are not written.
    """
    _make_room(state, 1)
    _, flows = _run(state, [(q_in_on, q_in_off, q_in_pass)], params, redeparture_weights)
    return StepFlows(*flows)


def _make_room(state: MacroState, n_steps: int) -> None:
    """Give the state new history buffers, holding entries 0..k and room for
    n_steps more steps, which ``_run`` fills in place."""
    k0 = state.k
    for name in _HISTORIES:
        buf = np.zeros(k0 + n_steps + 1)
        buf[: k0 + 1] = getattr(state, name)[: k0 + 1]
        setattr(state, name, buf)


def _run(state: MacroState, inflows, params: MacroParams, weights: np.ndarray):
    """The step loop behind ``macro_step`` and ``simulate_macro``.

    Advances the state by one step per (q_in_on, q_in_off, q_in_pass) row of
    ``inflows``, once ``_make_room`` has made room for at least that many
    steps. The fields are read into locals once and written back once,
    except that step k writes entry k of each history in place. Returns two
    flat lists: the _ACC_FIELDS of the start state and of each step's end
    state, and the StepFlows of each step, row after row.
    """
    n_m_off, n_m_on, n_m_pass = state.n_m_off, state.n_m_on, state.n_m_pass
    n_c, n_off, n_on = state.n_c, state.n_off, state.n_on
    cum_inflow, cum_exit = state.cum_inflow, state.cum_exit
    k0 = k = state.k
    o_c_hist, o_off_hist, q_off_on_hist = state.o_c_hist, state.o_off_hist, state.q_off_on_hist
    nfd, distance_model, dt, k_off = params.nfd, params.distance_model, params.dt, params.k_off
    l_m_off, l_m_on, l_m_pass = params.l_m_off, params.l_m_on, params.l_m_pass
    v_on_f, N_on = params.v_on_f, params.N_on
    # as floats, which is what int - float arithmetic converts them to
    N_on_f, N_off_f = float(N_on), float(params.N_off)

    # min(a, b) is written ``b if b < a else a`` and max(a, b) ``b if b > a
    # else a``: the builtins' own operand order, so NaN and -0.0 come out alike
    acc = []
    flows = []
    steps = iter(inflows)
    while True:
        # the state's n and v, carried into the step that starts from it
        n = n_m_off + n_m_on + n_m_pass + n_c
        v = nfd_speed(nfd, n)
        O_on = n_on / N_on_f if N_on > 0 else 0.0
        acc += (n_m_on, n_m_off, n_m_pass, n_c, n_on, n_off, n, v, O_on)
        inflow = next(steps, None)
        if inflow is None:
            break
        q_in_on, q_in_off, q_in_pass = inflow
        low = q_in_off if q_in_off < q_in_on else q_in_on
        if (q_in_pass if q_in_pass < low else low) < 0:
            raise ValueError("inflows must be >= 0")
        # checked at the first step only: every later state comes out of
        # _settle and the capacity clamps, so it is never negative
        if k == k0 and min(n_m_off, n_m_on, n_m_pass, n_c, n_off, n_on) < 0:
            raise ValueError("accumulations must be >= 0")
        k += 1

        q_out_on = q_out_off = 0.0
        if k >= 2:
            w_rev = weights[1 - k :]
            q_out_on = float(o_c_hist[1:k].dot(w_rev))
            q_out_off = float(o_off_hist[1:k].dot(w_rev))

        P_c = n_c * (v if v < v_on_f else v_on_f)
        P_m = n * v - P_c
        n_m_sum = n_m_off + n_m_on + n_m_pass
        if n_m_sum > 0.0:
            share = P_m * dt / n_m_sum
            o_m, cap = share * n_m_off / l_m_off, n_m_off + q_in_off
            o_m_off = cap if cap < o_m else o_m
            o_m, cap = share * n_m_on / l_m_on, n_m_on + q_in_on
            o_m_on = cap if cap < o_m else o_m
            o_m, cap = share * n_m_pass / l_m_pass, n_m_pass + q_in_pass + q_out_on + q_out_off
            o_m_pass = cap if cap < o_m else o_m
        else:
            o_m_off = o_m_on = o_m_pass = 0.0

        # lot arrivals beyond the free spots, counting this step's re-departures
        excess = o_m_off - (N_off_f - n_off + q_out_off)
        q_off_on = excess if excess > 0.0 else 0.0

        # the overflow of step k - k_off re-enters the search now; with k_off == 0
        # that is this step's own overflow
        if k_off == 0:
            delayed = q_off_on
        else:
            delayed = q_off_on_hist.item(k - k_off) if k - k_off >= 1 else 0.0

        l_c = evaluate_clamped(distance_model, O_on)
        o_c_raw = P_c * dt / l_c if l_c > 0 else math.inf
        cap_avail = n_c + delayed + o_m_on
        cap_spots = N_on_f - n_on + q_out_on
        o_c = cap_avail if cap_avail < o_c_raw else o_c_raw
        o_c = cap_spots if cap_spots < o_c else o_c
        o_c = o_c if o_c > 0.0 else 0.0

        scale = cum_inflow + q_in_on + q_in_off + q_in_pass
        x = n_m_off + q_in_off - o_m_off
        n_m_off = _settle(x, scale) if x < 0.0 else x
        x = n_m_on + q_in_on - o_m_on
        n_m_on = _settle(x, scale) if x < 0.0 else x
        x = n_m_pass + q_in_pass + q_out_on + q_out_off - o_m_pass
        n_m_pass = _settle(x, scale) if x < 0.0 else x
        x = n_c + delayed + o_m_on - o_c
        n_c = _settle(x, scale) if x < 0.0 else x
        x = n_off + o_m_off - q_off_on - q_out_off
        n_off = _settle(x, scale) if x < 0.0 else x
        if q_off_on > 0.0 and N_off_f < n_off:
            n_off = N_off_f
        x = n_on + o_c - q_out_on
        n_on = _settle(x, scale) if x < 0.0 else x
        # the free spots bound o_c
        if (o_c_raw > cap_spots or cap_avail > cap_spots) and N_on_f < n_on:
            n_on = N_on_f

        o_c_hist[k] = o_c
        o_off_hist[k] = o_m_off - q_off_on
        q_off_on_hist[k] = q_off_on
        cum_inflow += q_in_on + q_in_off + q_in_pass
        cum_exit += o_m_pass
        flows += (o_c, q_off_on, q_out_on, q_out_off)

        # held() + cum_exit on the new state, added in held()'s order; the
        # overflow still in the circuit is summed by a plain loop, as in
        # in_circuit()
        lo = k - k_off + 1
        in_circuit = 0.0
        for q in q_off_on_hist[lo if lo > 1 else 1 : k + 1].tolist():
            in_circuit += q
        total = n_m_off + n_m_on + n_m_pass + n_c + n_off + n_on + in_circuit + cum_exit
        residual = abs(total - cum_inflow)
        if residual > 1e-9 * (cum_inflow if cum_inflow > 1.0 else 1.0):
            raise ConservationError(f"step {k}: conservation residual {residual}")

    state.n_m_off, state.n_m_on, state.n_m_pass = n_m_off, n_m_on, n_m_pass
    state.n_c, state.n_off, state.n_on = n_c, n_off, n_on
    state.cum_inflow, state.cum_exit, state.k = cum_inflow, cum_exit, k
    return acc, flows


@dataclass
class MacroTrajectories:
    """Per-step time series of one macro run; accumulations include t=0."""

    t: np.ndarray  # hr, len n_steps+1
    n_m_on: np.ndarray
    n_m_off: np.ndarray
    n_m_pass: np.ndarray
    n_c: np.ndarray
    n_on: np.ndarray
    n_off: np.ndarray
    n: np.ndarray
    v: np.ndarray
    O_on: np.ndarray
    o_c: np.ndarray  # len n_steps
    q_off_on: np.ndarray
    q_out_on: np.ndarray
    q_out_off: np.ndarray
    final_state: "MacroState | None" = None

    @property
    def n_steps(self) -> int:
        return len(self.o_c)


def simulate_macro(
    park_inflow,
    pass_inflow,
    prices,
    params: MacroParams,
    initial_state: MacroState | None = None,
    cache: "PrefixCache | None" = None,
) -> MacroTrajectories:
    """Run the mass-conservation system over a demand and price profile.

    ``park_inflow``/``pass_inflow`` are per-step totals (veh/step).
    ``prices`` is an (m, 2) array of m >= 1 (tau_on, tau_off) rows, where m
    divides the step count n: row i is in force for steps i*n/m to
    (i+1)*n/m - 1. The parking inflow is split on/off-street by the choice
    model at each row's prices.

    The run advances a copy of the start state through rows j..m-1, one
    ``_run`` per row, each restarting from the floats the last wrote back.
    Without a ``cache`` j is 0. With one, it resumes from the state at the
    end of the longest proper prefix ``prices[:j]`` the cache holds and
    takes the first j rows' trajectories from it, so it returns the same
    full-length trajectories, bit for bit, as a run without it.
    """
    park_inflow = np.asarray(park_inflow, dtype=float)
    pass_inflow = np.asarray(pass_inflow, dtype=float)
    if len(pass_inflow) != len(park_inflow):
        raise ValueError("demand profiles must have equal length")
    n_steps = len(park_inflow)
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or prices.shape[1] != 2:
        raise ValueError(f"prices must have shape (m, 2), got {prices.shape}")
    m = len(prices)
    if m == 0 or n_steps % m:
        raise ValueError(f"{m} price rows do not divide the {n_steps} steps")
    per_row = n_steps // m
    state = initial_state if initial_state is not None else MacroState()
    j, head = 0, None
    if cache is not None:
        j, state, head = cache.lookup(park_inflow, pass_inflow, prices, params, state)
    state = state.copy()
    remaining = (m - j) * per_row
    _make_room(state, remaining)
    weights = params.redeparture_weights(state.k + remaining)
    park, pas = park_inflow.tolist(), pass_inflow.tolist()
    acc, flows, boundaries = [], [], []
    for i, (tau_on, tau_off) in enumerate(prices.tolist()[j:], j):
        share = _share_on(tau_on, tau_off, params)
        lo, hi = i * per_row, (i + 1) * per_row
        # split step by step, so that a bad inflow raises at its own step
        inflows = ((*_split(q, share), q_pass) for q, q_pass in zip(park[lo:hi], pas[lo:hi]))
        row_acc, row_flows = _run(state, inflows, params, weights)
        # a row after the first repeats the boundary state it starts from
        acc += row_acc if i == 0 else row_acc[len(_ACC_FIELDS) :]
        flows += row_flows
        if cache is not None and m - 1 - PREFIX_CACHE_SIZE <= i < m - 1:
            boundaries.append(_prefix_state(state))
    acc, flows = _tables(acc, flows)
    if j:
        acc_head, flow_head = head
        acc, flows = np.concatenate([acc_head, acc]), np.concatenate([flow_head, flows])
    if cache is not None:
        cache.store(prices, boundaries, acc, flows)

    t = params.dt * np.arange(n_steps + 1)
    return MacroTrajectories(
        t=t, **_columns(_ACC_FIELDS, acc), **_columns(StepFlows._fields, flows), final_state=state
    )


_ACC_FIELDS = ("n_m_on", "n_m_off", "n_m_pass", "n_c", "n_on", "n_off", "n", "v", "O_on")


def _tables(acc: list, flows: list) -> tuple[np.ndarray, np.ndarray]:
    """``_run``'s two flat lists as float64 tables: one row of _ACC_FIELDS
    per state and one row of StepFlows per step."""
    acc = np.array(acc, dtype=float).reshape(-1, len(_ACC_FIELDS))
    return acc, np.array(flows, dtype=float).reshape(-1, len(StepFlows._fields))


def _columns(names, table: np.ndarray) -> dict[str, np.ndarray]:
    """Named contiguous float64 columns of a table."""
    return dict(zip(names, table.T.copy()))


# prefixes a PrefixCache keeps. Measured on pricing-compare at 8, 16 and 32
# entries: 16 simulates 1.6% more steps than 32 at half its added peak memory
PREFIX_CACHE_SIZE = 16


class PrefixCache:
    """Row-boundary states of ``simulate_macro`` runs of one forecast from
    one start state, for later runs to resume from.

    The key of an entry is a proper prefix ``prices[:j]`` (0 < j < m) of a
    run's m price rows, with the steps per row; its value is the state at
    the end of row j - 1 and the run's trajectory tables, whose first rows
    are the prefix's; the state's histories are views of the run's buffers.
    The cache binds to the forecast, start state and params of its first
    run and raises ValueError for a run with others. It keeps the
    PREFIX_CACHE_SIZE most recently used prefixes. A run enters only its
    last PREFIX_CACHE_SIZE, which its own eviction would keep, and since the
    bound forecast fixes m for its steps per row, it looks up only those.
    """

    def __init__(self):
        self._inputs = None
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, park_inflow, pass_inflow, prices, params, start: MacroState):
        """j, the state at the end and the (state, flow) tables of the
        longest cached proper prefix ``prices[:j]``, or 0, ``start`` and
        None; binds the cache on its first run and checks every later one."""
        inputs = _run_inputs(park_inflow, pass_inflow, start, params)
        if self._inputs is None:
            self._inputs = inputs
        elif inputs != self._inputs:
            raise ValueError(
                "a prefix cache serves the runs of one forecast, start state and params"
            )
        m, per_row = len(prices), len(park_inflow) // len(prices)
        for j in range(m - 1, max(1, m - PREFIX_CACHE_SIZE) - 1, -1):
            key = per_row, prices[:j].tobytes()
            if key in self._entries:
                self._entries.move_to_end(key)
                boundary, acc, flows = self._entries[key]
                return j, boundary, (acc[: j * per_row + 1], flows[: j * per_row])
        return 0, start, None

    def store(self, prices, boundaries, acc: np.ndarray, flows: np.ndarray) -> None:
        """Enter the states at the ends of a run's last len(boundaries)
        proper prefixes, with the run's full state and flow tables."""
        per_row = len(flows) // len(prices)
        for i, boundary in enumerate(boundaries, len(prices) - len(boundaries)):
            self._entries[per_row, prices[:i].tobytes()] = (boundary, acc, flows)
            if len(self._entries) > PREFIX_CACHE_SIZE:
                self._entries.popitem(last=False)


def _run_inputs(park_inflow, pass_inflow, state: MacroState, params: MacroParams) -> tuple:
    """Everything a run reads besides its price rows, as comparable values."""
    k = state.k
    scalars = (state.n_m_off, state.n_m_on, state.n_m_pass, state.n_c, state.n_off,
               state.n_on, state.cum_inflow, state.cum_exit)
    return (park_inflow.tobytes(), pass_inflow.tobytes(), np.array(scalars).tobytes(), k,
            *(getattr(state, name)[: k + 1].tobytes() for name in _HISTORIES), params)


def _prefix_state(state: MacroState) -> MacroState:
    """A copy of a state mid-run whose histories view entries 0..k of the
    run's buffers, which ``_run`` never writes again."""
    k = state.k
    return replace(state, **{name: getattr(state, name)[: k + 1] for name in _HISTORIES})


def uniform_profile(total: float, n_steps: int) -> np.ndarray:
    """Per-step inflow of a demand spread uniformly over the horizon."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return np.full(n_steps, total / n_steps)
