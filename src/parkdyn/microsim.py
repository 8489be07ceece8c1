"""Discrete-time mesoscopic simulator of parking search on a road network.

Vehicles belong to one of six parking-related families:

  i    moving toward an on-street target
  ii   moving toward the off-street lot
  iii  in transit (passing through, or re-departed after parking)
  iv   cruising for an on-street spot
  v    parked on street
  vi   parked off street

Link dynamics are mesoscopic: per-link Greenshields speed from the density of
the other vehicles on the link, with single-lane links capped at the slowest
cruiser's desired speed (moving-bottleneck approximation). Parked vehicles
occupy spots but not road space. A run is fully determined by
(network, scenario, seed).

State layout. ``Simulation.vehicles`` holds the whole demand from
construction, in id order, which is entry-time order; the first
``injected`` of them are on their trips. A ``_Vehicle`` keeps a vehicle's
trip (entry time, origin, destination, parking duration, desired and
cruising speeds), route, family and logging fields in Python. Its
kinematic state (position, distances, driving times, speed caps, next
search re-check) lives in numpy arrays indexed by its id, and so does the
one record of the link it is on: ``link_key`` is ``(rank of the link in
link_order << 40) + entry sequence number`` while the vehicle is on a link
and -1 otherwise. Sorting the keys of the on-link vehicles gives the sweep
order: links in ``link_order``, and the vehicles on a link in the order
they entered it.

A run's results hold each quantity once. ``RunResult.vehicles`` is a dict
of numpy columns in vehicle-id order, as ``series`` is one of per-step
columns; its float columns come from the slot arrays, and
``performance_metrics`` takes masks over them. ``series`` is views of the
simulation's per-step buffers. An event's occupancies ``occ_on`` and
``occ_off`` are read from two tables of ``k / capacity``, built once per
simulation, so every event and step at one count shares one float.

One step's movement sweep is array-shaped. Link counts, Greenshields
speeds and the single-lane cruiser cap come from a few numpy passes over
the on-link slots, in any order. A vehicle that stands (its link's speed
is 0, it is short of the link's end and its search re-check is not due)
advances by exactly +0.0, so its step adds driving time and nothing else:
with every speed > 0 (``ScenarioConfig`` rejects a speed range that
reaches 0), adding +0.0 to its non-negative position, distances
and free-flow time changes no bit, and it can neither arrive nor park. Such
vehicles get their driving time and leave the sweep; on a jammed grid they
are most of the vehicle-steps. The others are sorted into sweep order, and
their advances come from a few more numpy passes; those without a due
re-check advance elementwise. Only vehicles with an event (an arrival at
the link end, or a cruiser on a supplied link whose re-check is due) then
go through a sequential Python pass in sweep order, so that spot races
resolve as in a per-vehicle sweep; a due cruiser that finds no free spot
advances there. The step's distance is summed left to right in sweep
order; the standing vehicles' +0.0 terms would not change it.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .network import (FINITE, POSITIVE, UNIT, DurationDistribution, FieldError, Network,
                      at_least, check_fields, greenshields_speed, read_json, within)

FAMILIES = ("i", "ii", "iii", "iv", "v", "vi")
ALLOWED_TRANSITIONS = frozenset(
    {
        ("new", "i"),
        ("new", "ii"),
        ("new", "iii"),
        ("i", "v"),
        ("i", "iv"),
        ("iv", "v"),
        ("v", "iii"),
        ("ii", "vi"),
        ("ii", "iv"),
        ("vi", "iii"),
        ("iii", "exited"),
    }
)

# How a CSV row template writes a cell of each column kind: ints and strings
# as their str, floats with 10 significant digits, so a float does not read
# back exactly.
FLOAT = "%.10g"
CELL_FORMATS = {"int": "%s", "str": "%s", "float": FLOAT}


class Table(NamedTuple):
    """One CSV file's column names and the kind of each (a key of
    CELL_FORMATS), declared once: ``cli.write_csv`` writes each row with one
    ``%`` over ``row``, and the run-directory readers convert each column by
    its kind. A template writes a string cell unquoted, so it must hold no
    comma, double quote, CR or LF; network ids are checked for them at load."""

    columns: tuple[str, ...]
    kinds: tuple[str, ...]

    @property
    def header(self) -> str:
        return ",".join(self.columns) + "\r\n"

    @property
    def row(self) -> str:
        # lines end in CRLF, as csv.writer ends them
        return ",".join(CELL_FORMATS[k] for k in self.kinds) + "\r\n"


# Per-step series of a run, in the column order of series.csv.
SERIES_COLUMNS = (
    "t_s",
    "dist_km",
    "active",
    "n_i",
    "n_ii",
    "n_iii",
    "n_iv",
    "n_on",
    "n_off",
    "in_circuit",
    "occ_on",
    "occ_off",
    "parked_on",
    "parked_off",
    "overflow",
)
SERIES_CSV = Table(SERIES_COLUMNS, ("float",) * len(SERIES_COLUMNS))


class TopologyError(ValueError):
    """The search reached a node it cannot leave."""


@dataclass(frozen=True)
class GuidanceConfig:
    local_guidance: bool = False
    regional_guidance: bool = False
    regional_threshold: float = within(FINITE, 0.95)
    compliance: float = within(UNIT, 1.0)

    __post_init__ = check_fields


DEMAND_PROFILES = ("uniform", "ramp-up", "ramp-down")


@dataclass(frozen=True)
class ScenarioConfig:
    """Demand, choice, and run-control parameters of one micro scenario."""

    parker_count: int = within(at_least(0), 0)
    passer_count: int = within(at_least(0), 0)
    parker_profile: str = "uniform"
    passer_profile: str = "uniform"
    tau_on: float = within(FINITE, 0.0)  # $ per parking event
    tau_off: float = within(FINITE, 0.0)
    alpha_on: float = within(FINITE, 0.0)  # location attractions (utility units)
    alpha_off: float = within(FINITE, 0.0)
    beta: float = within(at_least(0), 0.0)  # 1/$
    duration: DurationDistribution = field(default_factory=DurationDistribution)
    cruise_speed: float = within(FINITE, 30.0)  # km/hr set value; drawn +- jitter per driver
    cruise_speed_jitter: float = 5.0
    desired_speed: float = within(FINITE, 50.0)
    desired_speed_jitter: float = 5.0
    captive_spots: int = within(at_least(0), 0)
    preoccupied_spots: int = within(at_least(0), 0)
    vacate_per_minute: float = within(at_least(0), 0.0)
    dt_sim: float = within(POSITIVE, 1.0)  # s
    horizon: float = within(POSITIVE, 1.0)  # hr
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    reeval_period: float = within(at_least(0), 30.0)  # s between mid-link search re-evaluations
    gridlock_steps: int = within(at_least(1), 600)  # still steps that flag gridlock

    def __post_init__(self):
        if self.parker_profile not in DEMAND_PROFILES or self.passer_profile not in DEMAND_PROFILES:
            raise ValueError(f"demand profiles must be one of {DEMAND_PROFILES}")
        # drivers draw speeds from [speed - |jitter|, speed + |jitter|]; nan or inf jitter fails
        for name in ("desired_speed", "cruise_speed"):
            speed, jitter = getattr(self, name), getattr(self, f"{name}_jitter")
            if not speed - abs(jitter) > 0.0:
                raise FieldError(name, f"must exceed |{name}_jitter| so that every drawn speed "
                                       f"is > 0, got {speed:g} and {jitter:g}")
        check_fields(self)
        self.n_steps  # raises unless dt_sim divides the horizon

    @property
    def n_steps(self) -> int:
        """Micro steps in the horizon."""
        return whole_steps(self.horizon * 3600.0, self.dt_sim, "horizon", "dt_sim")

    def blocked_spots(self, capacity: int) -> int:
        """Captive plus pre-occupied spots, the on-street spots taken before
        the run starts; raises ValueError unless they fit the ``capacity``
        on-street spots of the network."""
        need = self.captive_spots + self.preoccupied_spots
        if need > capacity:
            raise ValueError(
                f"captive + preoccupied spots exceed on-street capacity ({need} > {capacity})"
            )
        return need

    def check_supply(self, network: Network) -> None:
        """Raises ValueError when parkers are scheduled but ``network`` has
        neither an on-street spot nor a lot."""
        if self.parker_count and not network.total_parking_capacity and network.lot is None:
            raise ValueError("parkers scheduled but the network has no parking supply")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def load(path) -> "ScenarioConfig":
        return read_json(ScenarioConfig, path, "scenario file")


class Event(NamedTuple):
    vehicle_id: int
    t_s: float
    from_family: str
    to_family: str
    link_id: str
    dist_km: float  # cumulative distance in the departing family
    occ_on: float
    occ_off: float


# events.csv: one row per Event; link_id holds a link id or the lot id
EVENTS_CSV = Table(Event._fields, ("int", "float", "str", "str", "str", "float", "float", "float"))


def choose_parking_alternative(fees, attractions, beta: float, rng) -> tuple[int, list[float]]:
    """Multinomial-logit draw over parking alternatives.

    Utility of alternative a is attraction_a - beta * fee_a. Returns the
    sampled index and the full probability vector.
    """
    fees = list(fees)
    attractions = list(attractions)
    if not fees or len(fees) != len(attractions):
        raise ValueError("need matching, non-empty fees and attractions")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    utils = [a - beta * f for f, a in zip(fees, attractions)]
    top = max(utils)
    weights = [math.exp(u - top) for u in utils]
    total = sum(weights)
    probs = [w / total for w in weights]
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u <= acc:
            return i, probs
    return len(probs) - 1, probs


def apply_regional_guidance(
    regional_occupancy: float, config: GuidanceConfig, compliant: bool
) -> bool:
    """True when a ``compliant`` driver diverts away from the saturated region."""
    return regional_occupancy > config.regional_threshold and compliant


@dataclass(slots=True, eq=False)
class _Vehicle:
    """A vehicle's trip, route and family; its kinematic state is in the
    simulation's slot arrays at index ``vid``. Vehicles compare and hash
    by identity."""

    vid: int
    entry_s: float
    origin: int
    destination: int
    purpose: str  # park-on | park-off | pass; park-on until a parker chooses
    parking_duration: float  # hr
    desired_speed: float  # km/hr
    cruise_speed: float  # km/hr, while family iv
    compliant: bool
    family: str = "new"
    route: tuple[str, ...] = ()
    route_i: int = 0
    target_link: str | None = None
    dist_iv: float = 0.0
    circuits: int = 0
    parked_link: str | None = None
    ever_parked: bool = False


# Per-vehicle state arrays, indexed by vehicle id, with their initial values.
_SLOT_ARRAYS = {
    "link_key": -1,  # (link rank << _SEQ_BITS) + entry sequence number; -1 off-link
    "pos": 0.0,  # km from the start of the link
    "speed_cap": 0.0,  # desired speed on this link: cruising speed if family iv
    "ff_speed": 0.0,  # min(link free-flow speed, desired speed), for free-flow time
    "cruiser_cap": math.inf,  # cruising speed if family iv on a single-lane link
    "next_recheck_s": math.inf,  # family iv on a supplied link: next look for a freed spot
    "dist_family": 0.0,  # km driven in the current family
    "dist_total": 0.0,
    "drive_time_s": 0.0,
    "freeflow_time_s": 0.0,
}
_SEQ_BITS = 40

# Per-vehicle aggregates of a run, the columns of ``RunResult.vehicles``.
VEHICLE_COLUMNS = (
    "purpose",  # park-on | park-off | pass (realized choice)
    "entry_s",
    "family_end",
    "parked",  # parked at least once
    "dist_total",  # km
    "dist_iv",  # km in family iv
    "circuits",  # lot circuits driven
    "drive_time_s",
    "freeflow_time_s",
)


@dataclass(frozen=True)
class RunSummary:
    """The totals and network constants of one run: the ``summary`` object
    of its ``metrics.json``, which ``cli.load_run_dir`` reads back with
    ``from_json``."""

    seed: int
    injected: int
    exited: int
    parked_on_total: int  # parking events over the run
    parked_off_total: int
    gridlock: bool
    on_street_capacity: int = within(at_least(0))
    lot_capacity: int
    network_length: float = within(POSITIVE)  # km
    l_off: float = within(FINITE)  # km of one lot circuit
    v_off_f: float = within(POSITIVE)  # km/hr in the lot

    __post_init__ = check_fields


@dataclass
class RunResult:
    """Event log, per-step series, vehicle table, and summary of one run.

    ``series`` maps each of SERIES_COLUMNS to one value per step.
    ``vehicles`` maps each of VEHICLE_COLUMNS to one value per injected
    vehicle, in id order; it is empty for a run read back from its
    directory. An event's ``occ_on`` and ``occ_off`` are entries of the
    simulation's occupancy tables, so events at equal counts share one
    float."""

    events: list[Event]
    series: dict[str, np.ndarray]
    vehicles: dict[str, np.ndarray]
    dt_sim: float
    summary: RunSummary


def cruising_veh_hr(counts, overflows, step, per_hr, l_off, v_off_f) -> tuple[float, float]:
    """The on-street cruising and the full-lot circuit deadweight, in veh-hr,
    of per-step cruiser ``counts`` and full-lot ``overflows``. A step lasts
    ``step`` units, ``per_hr`` of them to the hour (3600.0 for seconds, 1.0
    for hours); each overflow costs one circuit of ``l_off`` km at ``v_off_f``."""
    on_street = float(np.sum(counts)) * step / per_hr
    deadweight = float(np.sum(overflows)) * l_off / v_off_f
    return on_street, deadweight


def time_metrics(series: dict, dt_sim: float, l_off: float, v_off_f: float) -> dict[str, float]:
    """The veh-hr accounts of a micro series (``dt_sim`` in s): full-lot circuit
    deadweight, on-street cruising, their sum (ineffective cruising), and time
    on road."""
    on_street, deadweight = cruising_veh_hr(
        series["n_iv"], series["overflow"], dt_sim, 3600.0, l_off, v_off_f
    )
    return {
        "deadweight_veh_hr": deadweight,
        "on_street_cruising_veh_hr": on_street,
        "ineffective_cruising_veh_hr": on_street + deadweight,
        "total_travel_time_veh_hr": float(series["active"].sum()) * dt_sim / 3600.0,
    }


def whole_steps(span: float, step: float, name: str, step_name: str, unit: str = "s") -> int:
    """The number of ``step``s in ``span``; raises ValueError naming both
    quantities unless ``span`` is a whole, positive multiple of ``step``."""
    ratio = span / step if step > 0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(
            f"{name} {span:g} {unit} is not a whole, positive multiple "
            f"of the {step_name} {step:g} {unit}"
        )
    return steps


def _shares(capacity: int) -> list[float]:
    """``k / capacity`` for each count k in 0..capacity; [0.0] when there is
    no capacity."""
    return [k / capacity for k in range(capacity + 1)] if capacity else [0.0]


def macro_blocks(x: np.ndarray, steps: int) -> np.ndarray:
    """A per-micro-step series cut into whole macro steps of ``steps`` micro
    steps, one row each; a trailing partial macro step is dropped."""
    return x[: len(x) // steps * steps].reshape(-1, steps)


class Simulation:
    """One deterministic replication; advance with step() or run()."""

    def __init__(self, network: Network, scenario: ScenarioConfig, seed: int):
        self.net = network
        self.sc = scenario
        self.seed = seed
        self.dt = scenario.dt_sim
        self.dt_hr = self.dt / 3600.0
        self.n_steps = scenario.n_steps
        self.t = 0.0
        self.step_i = 0
        self.tau_on = scenario.tau_on
        self.tau_off = scenario.tau_off

        self.rng_search = random.Random(f"{seed}-search")
        self.rng_choice = random.Random(f"{seed}-choice")
        rng = random.Random(f"{seed}-demand")

        self.lot = network.lot
        # circuit length (km) and in-lot speed (km/hr) of the lot, if any
        self.l_off = self.lot.circuit_length if self.lot else 0.0
        self.v_off_f = self.lot.internal_cruise_speed if self.lot else 1.0
        self.capacity = network.total_parking_capacity
        # occupancy of each spot or lot count, shared by every event and step
        self._occ_on = _shares(self.capacity)
        self._occ_off = _shares(self.lot.capacity if self.lot else 0)
        self.free = {lid: ln.parking_capacity for lid, ln in network.links.items()}
        self.occupied_on = 0
        self.region_occ = {r: 0 for r in network.regions()}
        self.region_cap = {r: network.region_capacity(r) for r in network.regions()}
        self.link_region = network.region_assignment
        self.supply_links = sorted(
            lid for lid, ln in network.links.items() if ln.parking_capacity > 0
        )
        scenario.check_supply(network)

        self._build_demand(rng, list(network.boundary_nodes()))
        self._block_spots(rng)

        self.link_order = sorted(network.links)
        self.link_rank = {lid: r for r, lid in enumerate(self.link_order)}
        ordered = [network.links[lid] for lid in self.link_order]
        self._length = np.array([ln.length for ln in ordered], dtype=float)
        self._lane_km = np.array([ln.length * ln.lanes for ln in ordered], dtype=float)
        self._vf = np.array([ln.free_flow_speed for ln in ordered], dtype=float)
        self._kj = np.array([ln.jam_density for ln in ordered], dtype=float)
        self.parked_heap: list = []  # (depart_t_s, seq, vehicle)
        self.circuit_heap: list = []  # (exit_t_s, seq, vehicle)
        self._seq = 0  # orders link entries and heap pushes
        self.events: list[Event] = []
        self.injected = 0  # vehicles[:injected] are on their trips
        self._alloc_slots()
        # vehicles per family, kept by _log; family ii includes the lot circuit
        self.family_count = {"new": len(self.vehicles), **dict.fromkeys((*FAMILIES, "exited"), 0)}
        self.still_steps = 0
        self.gridlock = False

        self._series = {k: np.zeros(self.n_steps) for k in SERIES_COLUMNS}

    # ------------------------------------------------------------- setup

    def _build_demand(self, rng, boundary):
        sc = self.sc
        horizon_s = sc.horizon * 3600.0

        def draw(profile):
            u = rng.random()
            if profile == "ramp-up":  # arrival density rising linearly from zero
                u = math.sqrt(u)
            elif profile == "ramp-down":
                u = 1.0 - math.sqrt(1.0 - u)
            return u * horizon_s

        arrivals = []
        for n, purpose, profile in (
            (sc.parker_count, "park", sc.parker_profile),
            (sc.passer_count, "pass", sc.passer_profile),
        ):
            times = sorted(draw(profile) for _ in range(n))
            arrivals.extend((t, purpose) for t in times)
        arrivals.sort()
        others = {b: [x for x in boundary if x != b] for b in boundary}
        self.vehicles: list[_Vehicle] = []
        for vid, (t_s, purpose) in enumerate(arrivals):
            origin = rng.choice(boundary)
            dests = others[origin]
            dest = rng.choice(dests) if dests else origin
            duration = sc.duration.sample(rng) if purpose == "park" else 0.0
            desired = rng.uniform(
                sc.desired_speed - sc.desired_speed_jitter,
                sc.desired_speed + sc.desired_speed_jitter,
            )
            cruise = rng.uniform(
                sc.cruise_speed - sc.cruise_speed_jitter,
                sc.cruise_speed + sc.cruise_speed_jitter,
            )
            self.vehicles.append(
                _Vehicle(
                    vid, t_s, origin, dest, "park-on" if purpose == "park" else "pass",
                    duration, desired, cruise, rng.random() < sc.guidance.compliance,
                )
            )

    def _block_spots(self, rng):
        sc = self.sc
        need = sc.blocked_spots(self.capacity)
        slots: list[str] = []
        if need:
            pool = [
                lid
                for lid in self.supply_links
                for _ in range(self.net.links[lid].parking_capacity)
            ]
            rng.shuffle(pool)
            slots = pool[:need]
            for lid in slots:
                self._take_spot(lid)
        vacatable = slots[sc.captive_spots :]
        self.vacate_schedule: list[tuple[float, str]] = []
        if vacatable and sc.vacate_per_minute > 0:
            gap_s = 60.0 / sc.vacate_per_minute
            self.vacate_schedule = [((i + 1) * gap_s, lid) for i, lid in enumerate(vacatable)]
            self.vacate_schedule.reverse()

    def _alloc_slots(self):
        """Set the slot arrays to their initial values, one entry per vehicle."""
        for name, fill in _SLOT_ARRAYS.items():
            setattr(self, name, np.full(len(self.vehicles), fill))

    def on_link(self) -> np.ndarray:
        """Ids of the vehicles on a link, ascending."""
        return (self.link_key[: self.injected] >= 0).nonzero()[0]

    # ------------------------------------------------------- spot helpers

    def _take_spot(self, lid):
        self.free[lid] -= 1
        self.occupied_on += 1
        self.region_occ[self.link_region[lid]] += 1

    def _free_spot(self, lid):
        self.free[lid] += 1
        self.occupied_on -= 1
        self.region_occ[self.link_region[lid]] -= 1

    def occ_on(self) -> float:
        return self._occ_on[self.occupied_on]

    def occ_off(self) -> float:
        return self._occ_off[self.family_count["vi"]]

    @property
    def exited(self) -> int:
        return self.family_count["exited"]

    def regional_occupancy(self, region: int) -> float:
        cap = self.region_cap.get(region, 0)
        return self.region_occ.get(region, 0) / cap if cap else 0.0

    # ---------------------------------------------------------- logging

    def _log(self, veh: _Vehicle, to_family: str, link_id: str):
        if (veh.family, to_family) not in ALLOWED_TRANSITIONS:
            raise RuntimeError(f"illegal family transition {veh.family}->{to_family}")
        self.family_count[veh.family] -= 1
        self.family_count[to_family] += 1
        dist = self.dist_family.item(veh.vid)
        self.events.append(
            Event(
                veh.vid,
                self.t,
                veh.family,
                to_family,
                link_id,
                dist,
                self.occ_on(),
                self.occ_off(),
            )
        )
        if veh.family == "iv":
            veh.dist_iv += dist
        veh.family = to_family
        self.dist_family[veh.vid] = 0.0

    # ------------------------------------------------------- search logic

    def set_prices(self, tau_on: float, tau_off: float):
        """Prices seen by parkers arriving from now on."""
        self.tau_on = tau_on
        self.tau_off = tau_off

    def _candidates(self, from_link: str, compliant: bool) -> list[str]:
        node_id = self.net.links[from_link].to_node
        node = self.net.nodes[node_id]
        outs = self.net.out_links[node_id]
        if not outs:
            raise TopologyError(f"dead-end node {node_id}")
        reverse = self.net.reverse_link(from_link)
        cands = [lid for lid in outs if node.allows_u_turn or lid != reverse]
        if not cands:
            cands = list(outs)
        gc = self.sc.guidance
        if gc.regional_guidance:
            here = self.link_region.get(from_link)
            kept = [
                lid
                for lid in cands
                if self.link_region[lid] == here
                or not apply_regional_guidance(
                    self.regional_occupancy(self.link_region[lid]),
                    gc,
                    compliant,
                )
            ]
            if kept:
                cands = kept
        return cands

    def local_search_step(self, from_link: str, compliant: bool) -> str:
        """Next-link choice of a cruising vehicle at the end of ``from_link``;
        ``compliant`` drivers follow regional guidance."""
        cands = self._candidates(from_link, compliant)
        rng = self.rng_search
        links = self.net.links
        if self.sc.guidance.local_guidance:
            free = [lid for lid in cands if self.free[lid] > 0]
            if free:
                occ = [
                    (links[lid].parking_capacity - self.free[lid]) / links[lid].parking_capacity
                    for lid in free
                ]
                best = min(occ)
                ties = [lid for lid, o in zip(free, occ) if o == best]
                return ties[0] if len(ties) == 1 else rng.choice(ties)
            return cands[0] if len(cands) == 1 else rng.choice(cands)
        supplied = [lid for lid in cands if links[lid].parking_capacity > 0]
        pool = supplied if supplied else cands
        return pool[0] if len(pool) == 1 else rng.choice(pool)

    # ------------------------------------------------------- state moves

    def _place(self, veh: _Vehicle, lid: str):
        """Put ``veh`` at the start of ``lid``, behind the vehicles already
        on it. A vehicle's family does not change while it stays on a link,
        so the family-dependent fields are set here."""
        s = veh.vid
        link = self.net.links[lid]
        iv = veh.family == "iv"
        self._seq += 1
        self.link_key[s] = (self.link_rank[lid] << _SEQ_BITS) + self._seq
        self.pos[s] = 0.0
        self.speed_cap[s] = veh.cruise_speed if iv else veh.desired_speed
        self.ff_speed[s] = min(link.free_flow_speed, veh.desired_speed)
        self.cruiser_cap[s] = veh.cruise_speed if iv and link.lanes == 1 else math.inf
        rechecks = iv and link.parking_capacity > 0
        self.next_recheck_s[s] = self.t + self.sc.reeval_period if rechecks else math.inf

    def _enter_link(self, veh: _Vehicle, lid: str):
        """Move onto a link; searching vehicles park on entry if a spot is free."""
        if veh.family == "i" and lid == veh.target_link:
            if self.free[lid] > 0:
                self._park_on(veh, lid)
                return
            self._log(veh, "iv", lid)  # target full: the on-street search begins
        elif veh.family == "iv" and self.free[lid] > 0:
            self._park_on(veh, lid)
            return
        self._place(veh, lid)

    def _park_on(self, veh: _Vehicle, lid: str):
        self._take_spot(lid)
        self._log(veh, "v", lid)
        self.link_key[veh.vid] = -1
        veh.parked_link = lid
        veh.ever_parked = True
        self._series["parked_on"][self.step_i] += 1
        self._push(self.parked_heap, self.t + veh.parking_duration * 3600.0, veh)

    def _arrive_lot(self, veh: _Vehicle):
        lot = self.lot
        self.link_key[veh.vid] = -1
        if self.family_count["vi"] < lot.capacity:
            self._log(veh, "vi", lot.id)
            veh.ever_parked = True
            self._series["parked_off"][self.step_i] += 1
            self._push(self.parked_heap, self.t + veh.parking_duration * 3600.0, veh)
        else:
            veh.circuits += 1
            self._series["overflow"][self.step_i] += 1
            self._push(self.circuit_heap, self.t + lot.circuit_time * 3600.0, veh)

    def _push(self, heap: list, t_s: float, veh: _Vehicle):
        """Schedule ``veh`` on ``heap`` at ``t_s``; equal times pop in push order."""
        self._seq += 1
        heapq.heappush(heap, (t_s, self._seq, veh))

    def _drive(self, veh: _Vehicle, route: tuple[str, ...]):
        """Start ``veh`` on ``route``; with no route it is at its destination and exits."""
        if not route:
            self._log(veh, "exited", "")
            return
        veh.route = route
        veh.route_i = 0
        self._enter_link(veh, route[0])

    def _arrival(self, veh: _Vehicle, lid: str):
        """Vehicle reached the end of ``lid``; route or search onwards."""
        fam = veh.family
        if fam == "iv":
            self._enter_link(veh, self.local_search_step(lid, veh.compliant))
            return
        if fam == "ii" and veh.route_i == len(veh.route) - 1:
            self._arrive_lot(veh)
            return
        if fam == "iii" and veh.route_i == len(veh.route) - 1:
            self._log(veh, "exited", lid)
            self.link_key[veh.vid] = -1
            return
        veh.route_i += 1
        self._enter_link(veh, veh.route[veh.route_i])

    # ------------------------------------------------------------- step

    def _inject_due(self):
        vehicles = self.vehicles
        while self.injected < len(vehicles) and vehicles[self.injected].entry_s <= self.t:
            veh = vehicles[self.injected]
            self.injected += 1
            if veh.purpose == "pass":
                self._log(veh, "iii", "")
                self._drive(veh, self.net.path_links(veh.origin, veh.destination))
                continue
            fees = [self.tau_on]
            attr = [self.sc.alpha_on]
            if self.lot is not None and self.supply_links:
                fees.append(self.tau_off)
                attr.append(self.sc.alpha_off)
                pick, _ = choose_parking_alternative(fees, attr, self.sc.beta, self.rng_choice)
            else:
                pick = 0 if self.supply_links else 1
            if pick == 0:
                veh.purpose = "park-on"
                goal = self.rng_choice.choice(self.supply_links)
                veh.target_link = goal
                self._log(veh, "i", goal)
            else:
                veh.purpose = "park-off"
                goal = self.lot.entry_link
                self._log(veh, "ii", goal)
            head = self.net.path_links(veh.origin, self.net.links[goal].from_node)
            self._drive(veh, (*head, goal))

    def _circuit_exits(self):
        while self.circuit_heap and self.circuit_heap[0][0] <= self.t:
            _, _, veh = heapq.heappop(self.circuit_heap)
            self.dist_total[veh.vid] += self.lot.circuit_length
            self.drive_time_s[veh.vid] += self.lot.circuit_time * 3600.0
            entry = self.lot.entry_link
            self._log(veh, "iv", entry)
            self._enter_link(veh, entry)

    def _redepartures(self):
        while self.parked_heap and self.parked_heap[0][0] <= self.t:
            _, _, veh = heapq.heappop(self.parked_heap)
            if veh.family == "v":
                self._free_spot(veh.parked_link)
                self._log(veh, "iii", veh.parked_link)
                from_link = veh.parked_link
            else:
                self._log(veh, "iii", self.lot.id)
                from_link = self.lot.entry_link
            from_node = self.net.links[from_link].to_node
            self._drive(veh, self.net.path_links(from_node, veh.destination))

    def _vacate_due(self):
        while self.vacate_schedule and self.vacate_schedule[-1][0] <= self.t:
            _, lid = self.vacate_schedule.pop()
            self._free_spot(lid)

    def _sweep(self) -> float:
        """Move every vehicle that is on a link at the start of the sweep by
        one dt; return the distance driven, summed in sweep order.

        Vehicles that enter a link during the sweep move from the next step
        on, and a link's speed comes from the vehicles on it at the start
        of the sweep."""
        on = self.on_link()
        if not on.size:
            return 0.0
        keys = self.link_key[on]
        lk = keys >> _SEQ_BITS  # link rank of each vehicle
        # Greenshields speed from the density of the other vehicles on the
        # link; an empty link gets density -1/lane_km, and no vehicle reads
        # its speed
        k = (np.bincount(lk, minlength=len(self._length)) - 1) / self._lane_km
        eff = greenshields_speed(k, self._vf, self._kj)
        np.minimum.at(eff, lk, self.cruiser_cap[on])  # single-lane links: the slowest cruiser
        if np.count_nonzero(eff) < eff.size:
            # A vehicle on a link at speed 0, short of its end and with no
            # due re-check, advances by exactly +0.0: its step adds only
            # driving time, and it leaves the sweep.
            stand = eff[lk] == 0.0
            stand &= self.next_recheck_s[on] > self.t
            stand &= self.pos[on] < self._length[lk]
            if stand.any():
                self.drive_time_s[on[stand]] += self.dt
                go = ~stand
                on, keys, lk = on[go], keys[go], lk[go]
                if not on.size:
                    return 0.0
        order = keys.argsort()
        on = on[order]
        lk = lk[order]  # in sweep order
        adv = np.minimum(eff[lk], self.speed_cap[on]) * self.dt_hr
        room = self._length[lk] - self.pos[on]
        arrived = adv >= room
        adv = np.minimum(adv, room)
        ff = 3600.0 * adv / self.ff_speed[on]
        due = self.next_recheck_s[on] <= self.t
        quiet = ~due  # a cruiser with a due re-check moves only if it does not park
        self._advance(on[quiet], adv[quiet], ff[quiet])

        # Sequential pass over the vehicles with an event, in sweep order:
        # parking and arrivals change spot counts that later vehicles see.
        parked = []
        ev = (arrived | due).nonzero()[0]
        if ev.size:
            vehicles, free, link_order = self.vehicles, self.free, self.link_order
            for j, s, r, is_due, is_arrival, a, f in zip(
                ev.tolist(),
                on[ev].tolist(),
                lk[ev].tolist(),
                due[ev].tolist(),
                arrived[ev].tolist(),
                adv[ev].tolist(),
                ff[ev].tolist(),
            ):
                lid = link_order[r]
                if is_due:
                    if free[lid] > 0:
                        self._park_on(vehicles[s], lid)  # a spot freed since entry
                        parked.append(j)
                        continue
                    self._advance(s, a, f)
                if is_arrival:
                    self._arrival(vehicles[s], lid)
        if parked:
            adv[parked] = 0.0
        return float(np.cumsum(adv)[-1])

    def _advance(self, slots, adv, ff):
        """Move ``slots`` on by ``adv`` km, ``ff`` s of free-flow time and
        one step of driving time."""
        self.pos[slots] += adv
        self.dist_family[slots] += adv
        self.dist_total[slots] += adv
        self.freeflow_time_s[slots] += ff
        self.drive_time_s[slots] += self.dt

    def step(self):
        """Advance one dt: inject, move, park, cycle the lot, re-depart."""
        i = self.step_i
        self._inject_due()
        self._circuit_exits()

        dist_sum = self._sweep()
        self._redepartures()
        self._vacate_due()

        s = self._series
        fc = self.family_count
        in_circuit = len(self.circuit_heap)
        n_ii = fc["ii"] - in_circuit
        active = fc["i"] + n_ii + fc["iii"] + fc["iv"]
        s["t_s"][i] = self.t
        s["dist_km"][i] = dist_sum
        s["active"][i] = active
        s["n_i"][i] = fc["i"]
        s["n_ii"][i] = n_ii
        s["n_iii"][i] = fc["iii"]
        s["n_iv"][i] = fc["iv"]
        s["n_on"][i] = fc["v"]
        s["n_off"][i] = fc["vi"]
        s["in_circuit"][i] = in_circuit
        s["occ_on"][i] = self.occ_on()
        s["occ_off"][i] = self.occ_off()

        if active and not dist_sum > 0.0:  # nobody moved: every advance is >= 0
            self.still_steps += 1
            if self.still_steps >= self.sc.gridlock_steps:
                self.gridlock = True
        else:
            self.still_steps = 0

        self.step_i += 1
        self.t = self.step_i * self.dt

    def run_until(self, t_s: float):
        while self.step_i < self.n_steps and self.t < t_s - 1e-9:
            self.step()

    def check_conservation(self) -> bool:
        """injected == on-network + parked + in-lot-circuit + exited; the
        family ledger matches the vehicles held on links (the on-link slots),
        in the lot circuit and in the parked heap; and no on-link slot
        belongs to a parked, circuiting or exited vehicle."""
        on = self.on_link().tolist()
        held = dict.fromkeys(self.family_count, 0)
        for s in on:
            held[self.vehicles[s].family] += 1
        if held["v"] or held["vi"] or held["exited"]:
            return False
        if not {veh.vid for _, _, veh in self.circuit_heap}.isdisjoint(on):
            return False
        held["ii"] += len(self.circuit_heap)
        for _, _, veh in self.parked_heap:
            held[veh.family] += 1
        total = sum(held.values()) + self.exited
        return total == self.injected and all(held[f] == self.family_count[f] for f in FAMILIES)

    def run(self) -> RunResult:
        while self.step_i < self.n_steps:
            self.step()
        return self.result()

    def series(self) -> dict[str, np.ndarray]:
        """Views of the per-step series over the steps run so far."""
        return {k: v[: self.step_i] for k, v in self._series.items()}

    def result(self) -> RunResult:
        n = self.injected
        vehs = self.vehicles[:n]
        cruising = np.array([v.family == "iv" for v in vehs], dtype=bool)
        dist_iv = np.array([v.dist_iv for v in vehs], dtype=float)
        # a vehicle still cruising adds the distance of its unfinished search
        dist_iv[cruising] += self.dist_family[:n][cruising]
        vehicles = {
            "purpose": np.array([v.purpose for v in vehs], dtype=str),
            "entry_s": np.array([v.entry_s for v in vehs], dtype=float),
            "family_end": np.array([v.family for v in vehs], dtype=str),
            "parked": np.array([v.ever_parked for v in vehs], dtype=bool),
            "dist_total": self.dist_total[:n].copy(),
            "dist_iv": dist_iv,
            "circuits": np.array([v.circuits for v in vehs], dtype=np.int64),
            "drive_time_s": self.drive_time_s[:n].copy(),
            "freeflow_time_s": self.freeflow_time_s[:n].copy(),
        }
        series = self.series()  # a run's finished steps do not change
        summary = RunSummary(
            seed=self.seed,
            injected=self.injected,
            exited=self.exited,
            parked_on_total=int(series["parked_on"].sum()),
            parked_off_total=int(series["parked_off"].sum()),
            gridlock=self.gridlock,
            on_street_capacity=self.capacity,
            lot_capacity=self.lot.capacity if self.lot else 0,
            network_length=self.net.total_length,
            l_off=self.l_off,
            v_off_f=self.v_off_f,
        )
        return RunResult(
            events=list(self.events), series=series, vehicles=vehicles, dt_sim=self.dt,
            summary=summary,
        )


# ---------------------------------------------------------------- analysis


# nfd.csv: one measure_nfd row per window
NFD_CSV = Table(("t_s", "K", "Q", "V"), ("float",) * 4)


def measure_nfd(series: dict, network_length: float, window_s: float, dt_s: float):
    """Edie aggregates per time window: (t, K veh/km, Q veh/hr, V km/hr).

    Windows without any vehicle time are omitted. Parked and in-lot vehicles
    never enter the series' distance or active-count sums.
    """
    if network_length <= 0:
        raise ValueError("network length must be > 0")
    steps = whole_steps(window_s, dt_s, "NFD window", "micro step")
    n = len(series["t_s"])
    rows = []
    for start in range(0, n, steps):
        end = min(start + steps, n)
        T_w = (end - start) * dt_s / 3600.0
        dist = float(np.sum(series["dist_km"][start:end]))
        time_vh = float(np.sum(series["active"][start:end])) * dt_s / 3600.0
        K = time_vh / (network_length * T_w)
        if K <= 0:
            continue
        Q = dist / (network_length * T_w)
        rows.append((float(series["t_s"][start]), K, Q, Q / K))
    return rows


def performance_metrics(result: RunResult) -> dict:
    """Network performance of one replication.

    Delay compares the driven time against free-flow traversal of the same
    path; lot circuits count fully as delay. Distance-to-park is family-iv
    distance plus lot circuits, for parked vehicles only; vehicles still
    cruising at the horizon end count against the completion rate.
    """
    v = result.vehicles
    parker = v["purpose"] != "pass"
    parked = parker & v["parked"]
    exited = v["family_end"] == "exited"
    n_parkers = int(np.count_nonzero(parker))
    drive, dist = v["drive_time_s"][exited], v["dist_total"][exited]
    moved = drive > 0
    dtp = v["dist_iv"][parked] + v["circuits"][parked] * result.summary.l_off

    def mean(x):
        return float(np.mean(x)) if x.size else None

    return {
        "n_vehicles": len(v["purpose"]),
        "n_parkers": n_parkers,
        "avg_travel_time_s": mean(drive),
        "avg_delay_s": mean(drive - v["freeflow_time_s"][exited]),
        "avg_speed_kmh": mean(dist[moved] / (drive[moved] / 3600.0)),
        "avg_distance_km": mean(dist),
        "completion_rate": int(np.count_nonzero(parked)) / n_parkers if n_parkers else None,
        "distance_to_park": dtp.tolist(),
        "mean_distance_to_park": mean(dtp),
        "avg_occupancy": float(result.series["occ_on"].mean())
        if len(result.series["occ_on"])
        else 0.0,
    }


def mean_network_speed(result: RunResult) -> float:
    """Edie space-mean speed over the whole run (total distance / total time)."""
    dist = float(result.series["dist_km"].sum())
    time_vh = float(result.series["active"].sum()) * result.dt_sim / 3600.0
    return dist / time_vh if time_vh > 0 else 0.0
