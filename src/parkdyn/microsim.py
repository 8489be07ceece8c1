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

State layout. A ``_Vehicle`` keeps a vehicle's identity, trip, route,
family and logging fields in Python, plus its slot: its index in
``Simulation.vehicles``. Its kinematic state (position, distances, driving
times, speed caps, next search re-check) lives in numpy arrays indexed by
slot, and so does the one record of the link it is on: ``link_key`` is
``(rank of the link in link_order << 40) + entry sequence number`` while
the vehicle is on a link and -1 otherwise. Sorting the keys of the on-link
slots gives the sweep order: links in ``link_order``, and the vehicles on
a link in the order they entered it.

One step's movement sweep is array-shaped. Link counts, Greenshields
speeds, the single-lane cruiser cap and every vehicle's advance come from a
few numpy passes over the on-link slots, and the vehicles without a due
search re-check advance elementwise. Only vehicles with an event (an
arrival at the link end, or a cruiser on a supplied link whose re-check is
due) then go through a sequential Python pass in sweep order, so that spot
races resolve as in a per-vehicle sweep; a due cruiser that finds no free
spot advances there. The step's distance is summed left to right in sweep
order.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .network import (
    DurationDistribution,
    Network,
    TripChain,
    from_json,
)

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


class TopologyError(ValueError):
    """The search reached a node it cannot leave."""


@dataclass(frozen=True)
class GuidanceConfig:
    local_guidance: bool = False
    regional_guidance: bool = False
    regional_threshold: float = 0.95
    compliance: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.compliance <= 1.0):
            raise ValueError("compliance must lie in [0, 1]")


DEMAND_PROFILES = ("uniform", "ramp-up", "ramp-down")


@dataclass(frozen=True)
class ScenarioConfig:
    """Demand, choice, and run-control parameters of one micro scenario."""

    parker_count: int = 0
    passer_count: int = 0
    parker_profile: str = "uniform"
    passer_profile: str = "uniform"
    tau_on: float = 0.0  # $ per parking event
    tau_off: float = 0.0
    alpha_on: float = 0.0  # location attractions (utility units)
    alpha_off: float = 0.0
    beta: float = 0.0  # 1/$
    duration: DurationDistribution = field(default_factory=DurationDistribution)
    cruise_speed: float = 30.0  # km/hr set value; drawn +- jitter per driver
    cruise_speed_jitter: float = 5.0
    desired_speed: float = 50.0
    desired_speed_jitter: float = 5.0
    captive_spots: int = 0
    preoccupied_spots: int = 0
    vacate_per_minute: float = 0.0
    dt_sim: float = 1.0  # s
    horizon: float = 1.0  # hr
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    reeval_period: float = 30.0  # s between mid-link search re-evaluations
    gridlock_steps: int = 600

    def __post_init__(self):
        if self.parker_count < 0 or self.passer_count < 0:
            raise ValueError("demand counts must be >= 0")
        if self.parker_profile not in DEMAND_PROFILES or self.passer_profile not in DEMAND_PROFILES:
            raise ValueError(f"demand profiles must be one of {DEMAND_PROFILES}")
        if self.dt_sim <= 0 or self.horizon <= 0:
            raise ValueError("dt_sim and horizon must be > 0")
        self.n_steps  # raises unless dt_sim divides the horizon
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

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

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def load(path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                return from_json(ScenarioConfig, json.load(fh))
            except ValueError as e:
                raise ValueError(f"scenario file {path}: {e}") from None


class Event(NamedTuple):
    vehicle_id: int
    t_s: float
    from_family: str
    to_family: str
    link_id: str
    dist_km: float  # cumulative distance in the departing family
    occ_on: float
    occ_off: float


class VehicleRecord(NamedTuple):
    """Per-vehicle aggregates accumulated during the run."""

    vehicle_id: int
    purpose: str  # park-on | park-off | pass (realized choice)
    entry_s: float
    family_end: str
    parked: bool
    dist_total: float
    dist_iv: float
    circuits: int
    drive_time_s: float
    freeflow_time_s: float


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


class _Vehicle:
    """A vehicle's identity, trip, route and family; its kinematic state is
    in the simulation's slot arrays at index ``slot``."""

    __slots__ = (
        "vid",
        "slot",
        "trip",
        "purpose",
        "family",
        "route",
        "route_i",
        "target_link",
        "dist_iv",
        "circuits",
        "compliant",
        "parked_link",
        "ever_parked",
    )

    def __init__(self, vid, trip, compliant):
        self.vid = vid
        self.slot = None
        self.trip = trip
        self.purpose = trip.purpose
        self.family = "new"
        self.route = []
        self.route_i = 0
        self.target_link = None
        self.dist_iv = 0.0
        self.circuits = 0
        self.compliant = compliant
        self.parked_link = None
        self.ever_parked = False


# Per-vehicle state arrays, indexed by slot, with the value of a new slot.
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


@dataclass
class RunResult:
    """Event log, per-step series, vehicle table, and summary of one run."""

    events: list[Event]
    series: dict[str, np.ndarray]
    vehicles: list[VehicleRecord]
    dt_sim: float
    network_length: float
    l_off: float
    v_off_f: float
    summary: dict


def time_metrics(series: dict, dt_sim: float, l_off: float, v_off_f: float) -> dict[str, float]:
    """The veh-hr accounts of a micro series: full-lot circuit deadweight,
    on-street cruising, their sum (ineffective cruising), and time on road.

    Each full-lot arrival costs one circuit of ``l_off`` km at ``v_off_f``.
    """
    deadweight = float(series["overflow"].sum()) * l_off / v_off_f
    on_street = float(series["n_iv"].sum()) * dt_sim / 3600.0
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
        self.free = {lid: ln.parking_capacity for lid, ln in network.links.items()}
        self.occupied_on = 0
        self.region_occ = {r: 0 for r in network.regions()}
        self.region_cap = {r: network.region_capacity(r) for r in network.regions()}
        self.link_region = network.region_assignment
        self.supply_links = sorted(
            lid for lid, ln in network.links.items() if ln.parking_capacity > 0
        )
        if scenario.parker_count and not self.supply_links and self.lot is None:
            raise ValueError("parkers scheduled but the network has no parking supply")

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
        self.vehicles: list[_Vehicle] = []  # injected so far; a vehicle's slot is its index
        self._alloc_slots(len(self.pending))
        # vehicles per family, kept by _log; family ii includes the lot circuit
        self.family_count = {"new": len(self.pending), **dict.fromkeys((*FAMILIES, "exited"), 0)}
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
        self.pending: list[_Vehicle] = []
        for vid, (t_s, purpose) in enumerate(arrivals):
            origin = rng.choice(boundary)
            others = [b for b in boundary if b != origin]
            dest = rng.choice(others) if others else origin
            duration = sc.duration.sample(rng) if purpose == "park" else 0.0
            trip = TripChain(
                vehicle_id=vid,
                entry_time=t_s,
                origin=origin,
                destination=dest,
                purpose="park-on" if purpose == "park" else "pass",
                parking_duration=duration,
                desired_speed=rng.uniform(
                    sc.desired_speed - sc.desired_speed_jitter,
                    sc.desired_speed + sc.desired_speed_jitter,
                ),
                desired_cruise_speed=rng.uniform(
                    sc.cruise_speed - sc.cruise_speed_jitter,
                    sc.cruise_speed + sc.cruise_speed_jitter,
                ),
            )
            self.pending.append(_Vehicle(vid, trip, rng.random() < sc.guidance.compliance))
        self.pending.reverse()  # pop from the back in time order

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

    def _alloc_slots(self, n: int):
        """Size the slot arrays for ``n`` vehicles, keeping the slots in use."""
        for name, fill in _SLOT_ARRAYS.items():
            arr = np.full(n, fill)
            old = getattr(self, name, None)
            if old is not None:
                arr[: len(old)] = old
            setattr(self, name, arr)

    def _admit(self, veh: _Vehicle):
        """Give ``veh`` the next slot."""
        veh.slot = len(self.vehicles)
        self.vehicles.append(veh)
        if veh.slot == len(self.link_key):  # beyond the scheduled demand
            self._alloc_slots(2 * veh.slot + 1)

    def on_link(self) -> np.ndarray:
        """Slots of the vehicles on a link, ascending."""
        return (self.link_key[: len(self.vehicles)] >= 0).nonzero()[0]

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
        return self.occupied_on / self.capacity if self.capacity else 0.0

    def occ_off(self) -> float:
        lot = self.lot
        return self.family_count["vi"] / lot.capacity if lot and lot.capacity else 0.0

    @property
    def injected(self) -> int:
        return len(self.vehicles)

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
        dist = self.dist_family.item(veh.slot)
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
        self.dist_family[veh.slot] = 0.0

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
            free = [lid for lid in cands if self.free[lid] > 0 and links[lid].parking_capacity > 0]
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
        s = veh.slot
        link = self.net.links[lid]
        trip = veh.trip
        iv = veh.family == "iv"
        self._seq += 1
        self.link_key[s] = (self.link_rank[lid] << _SEQ_BITS) + self._seq
        self.pos[s] = 0.0
        self.speed_cap[s] = trip.desired_cruise_speed if iv else trip.desired_speed
        self.ff_speed[s] = min(link.free_flow_speed, trip.desired_speed)
        self.cruiser_cap[s] = trip.desired_cruise_speed if iv and link.lanes == 1 else math.inf
        rechecks = iv and link.parking_capacity > 0
        self.next_recheck_s[s] = self.t + self.sc.reeval_period if rechecks else math.inf

    def _enter_link(self, veh: _Vehicle, lid: str):
        """Move onto a link; searching vehicles park on entry if a spot is free."""
        if veh.family == "i" and lid == veh.target_link:
            if self.free[lid] > 0:
                self._park_on(veh, lid)
                return
            self._log(veh, "iv", lid)  # target full: the on-street search begins
        elif veh.family == "iv":
            if self.free[lid] > 0 and self.net.links[lid].parking_capacity > 0:
                self._park_on(veh, lid)
                return
        self._place(veh, lid)

    def _park_on(self, veh: _Vehicle, lid: str):
        self._take_spot(lid)
        self._log(veh, "v", lid)
        self.link_key[veh.slot] = -1
        veh.parked_link = lid
        veh.ever_parked = True
        self._series["parked_on"][self.step_i] += 1
        self._push(self.parked_heap, self.t + veh.trip.parking_duration * 3600.0, veh)

    def _arrive_lot(self, veh: _Vehicle):
        lot = self.lot
        self.link_key[veh.slot] = -1
        if self.family_count["vi"] < lot.capacity:
            self._log(veh, "vi", lot.id)
            veh.ever_parked = True
            self._series["parked_off"][self.step_i] += 1
            self._push(self.parked_heap, self.t + veh.trip.parking_duration * 3600.0, veh)
        else:
            veh.circuits += 1
            self._series["overflow"][self.step_i] += 1
            self._push(self.circuit_heap, self.t + lot.circuit_time * 3600.0, veh)

    def _push(self, heap: list, t_s: float, veh: _Vehicle):
        """Schedule ``veh`` on ``heap`` at ``t_s``; equal times pop in push order."""
        self._seq += 1
        heapq.heappush(heap, (t_s, self._seq, veh))

    def _drive(self, veh: _Vehicle, route: list[str]):
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
            self.link_key[veh.slot] = -1
            return
        veh.route_i += 1
        self._enter_link(veh, veh.route[veh.route_i])

    # ------------------------------------------------------------- step

    def _inject_due(self):
        while self.pending and self.pending[-1].trip.entry_time <= self.t:
            veh = self.pending.pop()
            trip = veh.trip
            self._admit(veh)
            if trip.purpose == "pass":
                self._log(veh, "iii", "")
                self._drive(veh, self.net.path_links(trip.origin, trip.destination))
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
            head = self.net.path_links(trip.origin, self.net.links[goal].from_node)
            self._drive(veh, head + [goal])

    def _circuit_exits(self):
        while self.circuit_heap and self.circuit_heap[0][0] <= self.t:
            _, _, veh = heapq.heappop(self.circuit_heap)
            self.dist_total[veh.slot] += self.lot.circuit_length
            self.drive_time_s[veh.slot] += self.lot.circuit_time * 3600.0
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
            self._drive(veh, self.net.path_links(from_node, veh.trip.destination))

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
        order = keys.argsort()
        on = on[order]
        lk = keys[order] >> _SEQ_BITS  # link rank of each vehicle, in sweep order
        # Greenshields speed from the density of the other vehicles on the
        # link, in the operation order of network.greenshields_speed
        k = (np.bincount(lk, minlength=len(self._length)) - 1) / self._lane_km
        eff = np.maximum(self._vf * (1.0 - k / self._kj), 0.0)
        np.minimum.at(eff, lk, self.cruiser_cap[on])  # single-lane links: the slowest cruiser
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
        if not {veh.slot for _, _, veh in self.circuit_heap}.isdisjoint(on):
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
        records = [
            VehicleRecord(
                vehicle_id=v.vid,
                purpose=v.purpose,
                entry_s=v.trip.entry_time,
                family_end=v.family,
                parked=v.ever_parked,
                dist_total=self.dist_total.item(v.slot),
                dist_iv=v.dist_iv + (self.dist_family.item(v.slot) if v.family == "iv" else 0.0),
                circuits=v.circuits,
                drive_time_s=self.drive_time_s.item(v.slot),
                freeflow_time_s=self.freeflow_time_s.item(v.slot),
            )
            for v in self.vehicles
        ]
        trimmed = {k: v.copy() for k, v in self.series().items()}
        summary = {
            "seed": self.seed,
            "injected": self.injected,
            "exited": self.exited,
            "parked_on_total": int(trimmed["parked_on"].sum()),
            "parked_off_total": int(trimmed["parked_off"].sum()),
            "gridlock": self.gridlock,
            "on_street_capacity": self.capacity,
            "lot_capacity": self.lot.capacity if self.lot else 0,
            "network_length": self.net.total_length,
            "l_off": self.l_off,
            "v_off_f": self.v_off_f,
        }
        return RunResult(
            events=list(self.events),
            series=trimmed,
            vehicles=records,
            dt_sim=self.dt,
            network_length=self.net.total_length,
            l_off=self.l_off,
            v_off_f=self.v_off_f,
            summary=summary,
        )


# ---------------------------------------------------------------- analysis


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
    vehicles = result.vehicles
    travel, delay, speeds, dists = [], [], [], []
    dtp = []
    n_parkers = 0
    n_parked = 0
    for rec in vehicles:
        if rec.purpose in ("park-on", "park-off"):
            n_parkers += 1
            if rec.parked:
                n_parked += 1
                dtp.append(rec.dist_iv + rec.circuits * result.l_off)
        if rec.family_end == "exited":
            travel.append(rec.drive_time_s)
            delay.append(rec.drive_time_s - rec.freeflow_time_s)
            if rec.drive_time_s > 0:
                speeds.append(rec.dist_total / (rec.drive_time_s / 3600.0))
            dists.append(rec.dist_total)

    def mean(x):
        return float(np.mean(x)) if x else None

    return {
        "n_vehicles": len(vehicles),
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


def mean_network_speed(result: RunResult) -> float:
    """Edie space-mean speed over the whole run (total distance / total time)."""
    dist = float(result.series["dist_km"].sum())
    time_vh = float(result.series["active"].sum()) * result.dt_sim / 3600.0
    return dist / time_vh if time_vh > 0 else 0.0
