"""Estimate macro-model inputs from micro-simulation output.

Three estimands: the speed-accumulation NFD, the family-specific mean moving
distances, and the occupancy -> cruise-distance curve. A validate() helper
quantifies macro-vs-micro consistency on aligned time grids.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import DistanceModel, FitDegenerateError, fit as fit_estimator
from .macromodel import MacroTrajectories, NfdModel
from .microsim import ALLOWED_TRANSITIONS, Event, RunResult, macro_blocks, measure_nfd, whole_steps
from .network import read_json


def nfd_samples(results: Iterable[RunResult], window_s: float = 60.0) -> list[tuple[float, float]]:
    """(accumulation, speed) pairs from Edie windows of each replication."""
    samples = []
    for res in results:
        length = res.summary.network_length
        for _, K, _, V in measure_nfd(res.series, length, window_s, res.dt_sim):
            samples.append((K * length, V))
    return samples


def fit_nfd(samples) -> tuple[NfdModel, dict]:
    """Weighted least-squares logistic fit of speed vs accumulation.

    Weights are the inverse sample count of each 10-vehicle accumulation bin
    so that the dense free-flow region does not dominate the congested tail.
    The count is floored at 10 and the loss is soft-L1 so that a handful of
    outlier windows in a near-empty bin cannot steer the whole curve. The fit
    runs from the data-based start and 9 seeded random restarts.
    """
    pts = [(float(n), float(v)) for n, v in samples]
    if len(pts) < 50:
        raise FitDegenerateError("need at least 50 NFD samples")
    n = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    bins = np.floor(n / 10.0).astype(int)
    uniq, counts = np.unique(bins, return_counts=True)
    if len(uniq) < 3:
        raise FitDegenerateError("NFD samples span fewer than 3 accumulation bins")
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    wts = np.sqrt(np.array([1.0 / max(count_of[b], 10) for b in bins.tolist()]))

    def resid(p):
        v0, n0, w = p
        return wts * (v0 / (1.0 + np.exp(np.clip((n - n0) / w, -500, 500))) - v)

    iqr = float(np.subtract(*np.percentile(n, [75, 25])))
    x0 = np.array([float(v.max()), float(np.median(n)), max(iqr, 10.0)])
    lo = [1e-6, -1e6, 1e-6]
    hi = [10.0 * v.max() + 1.0, 1e6, 1e6]
    f_scale = 0.01 * max(float(v.max()), 1e-9)  # keeps the fit scale-equivariant
    from scipy.optimize import least_squares  # here: runs that fit nothing skip scipy

    rng = np.random.default_rng(0)
    best = None
    for trial in range(10):
        start = x0 if trial == 0 else x0 * rng.uniform(0.5, 2.0, size=3)
        start = np.clip(start, lo, hi)
        sol = least_squares(resid, start, bounds=(lo, hi), loss="soft_l1", f_scale=f_scale)
        if best is None or sol.cost < best.cost:
            best = sol
    v0, n0, w = best.x
    model = NfdModel(float(v0), float(n0), float(w))
    vhat = v0 / (1.0 + np.exp(np.clip((n - n0) / w, -500, 500)))
    ss_res = float(np.sum((v - vhat) ** 2))
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    diag = {
        "rmse": float(np.sqrt(np.mean((v - vhat) ** 2))),
        "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        "n_samples": len(pts),
        "n_bins": int(len(uniq)),
    }
    return model, diag


# the calibrated mean moving distance of each moving family
_MOVING_DISTANCE = {"i": "l_m_on", "ii": "l_m_off", "iii": "l_m_pass"}
# every transition out of a moving family ends its moving segment
_MOVING_END = frozenset(t for t in ALLOWED_TRANSITIONS if t[0] in _MOVING_DISTANCE)


def replication_moving_distances(events: list[Event]) -> dict[str, float]:
    """Mean moving distance per family i-iii within one replication. A
    vehicle's travel distance is segmented by family; the cruising segment
    (family iv) is excluded here. A family with no completed segment is
    left out."""
    sums = {fam: [] for fam in _MOVING_DISTANCE}
    for ev in events:
        if (ev.from_family, ev.to_family) in _MOVING_END:
            sums[ev.from_family].append(ev.dist_km)
    return {fam: float(np.mean(vals)) for fam, vals in sums.items() if vals}


def moving_distance_stats(replication_means: Iterable[dict[str, float]]) -> dict:
    """Mean and standard deviation across replications of the
    ``replication_moving_distances`` of each; a family absent from every
    replication is reported as None."""
    per_rep = {fam: [] for fam in _MOVING_DISTANCE}
    for means in replication_means:
        for fam, mean in means.items():
            per_rep[fam].append(mean)
    stats, std = {}, {}
    for fam, name in _MOVING_DISTANCE.items():
        vals = per_rep[fam]
        stats[name] = float(np.mean(vals)) if vals else None
        std[name] = float(np.std(vals)) if vals else None
    stats["std"] = std
    return stats


def extract_occupancy_distance(
    event_logs: Iterable[list[Event]],
    trend: str = "increasing",
    occupancy_ref: str = "init",
) -> list[tuple[float, float]]:
    """(occupancy, cruise distance km) per vehicle that parked on street.

    The occupancy reference is the value when the search started ("init") or
    the mean of search start and park ("avg"); the trend filter keeps vehicles
    whose average occupancy rose ("increasing"), fell ("decreasing"), or
    either ("both") during the search. Vehicles still cruising at the end of
    the run never produce a park event and are therefore excluded. The logs
    may be any iterable, read one at a time.
    """
    if trend not in ("increasing", "decreasing", "both"):
        raise ValueError(f"unknown trend filter {trend!r}")
    if occupancy_ref not in ("init", "avg"):
        raise ValueError(f"unknown occupancy reference {occupancy_ref!r}")
    out = []
    for events in event_logs:
        cruise_start: dict[int, float] = {}
        for ev in events:
            if ev.to_family == "iv" and ev.vehicle_id not in cruise_start:
                cruise_start[ev.vehicle_id] = ev.occ_on
            elif ev.to_family == "v":
                o_start = cruise_start.get(ev.vehicle_id, ev.occ_on)
                o_park = ev.occ_on
                rising = o_park >= o_start
                if trend == "increasing" and not rising:
                    continue
                if trend == "decreasing" and rising:
                    continue
                o = o_start if occupancy_ref == "init" else 0.5 * (o_start + o_park)
                d = ev.dist_km if ev.from_family == "iv" else 0.0
                out.append((o, d))
        del events  # a log read lazily is released before the next one is read
    return out


def fit_distance_curve(observations) -> tuple[DistanceModel, dict]:
    """Exponential occupancy->distance fit on mean observations in occupancy
    bins 0.01 wide."""
    if not observations:
        raise FitDegenerateError("no distance observations")
    O = np.array([o for o, _ in observations])
    d = np.array([x for _, x in observations])
    bin_width = 0.01
    bins = np.floor(O / bin_width).astype(int)
    means = []
    for b in np.unique(bins):
        mask = bins == b
        m = float(d[mask].mean())
        if m > 0:
            center = min((b + 0.5) * bin_width, 1.0 - bin_width / 2)  # O=1 snapshots
            means.append((center, m))
    if len(means) < 2:
        raise FitDegenerateError("fewer than 2 occupancy bins with positive mean distance")
    model, diag = fit_estimator(means, "exp-distance")
    diag["n_observations"] = len(observations)
    diag["n_bins"] = len(means)
    return model, diag


@dataclass
class CalibrationReport:
    """Fitted macro inputs plus diagnostics, serializable to calibration.json."""

    nfd: NfdModel
    l_m_on: float
    l_m_off: float
    l_m_pass: float
    distance_model: DistanceModel
    nfd_diag: dict = field(default_factory=dict)
    distance_diag: dict = field(default_factory=dict)
    moving_distance_std: dict = field(default_factory=dict)
    scenario_filter: str = "increasing+init"

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "CalibrationReport":
        return read_json(CalibrationReport, path, "calibration file")


def calibrate(
    results: Iterable[RunResult],
    nfd_window_s: float = 60.0,
    trend: str = "increasing",
    occupancy_ref: str = "init",
) -> CalibrationReport:
    """Full calibration pipeline over a set of replications. ``results`` may
    be any iterable: each replication is folded into the NFD samples, its
    mean moving distances and its occupancy-distance observations, and
    released before the next one is read; the fits run after the last."""
    samples, moving, obs = [], [], []
    for res in results:
        samples += nfd_samples([res], nfd_window_s)
        moving.append(replication_moving_distances(res.events))
        obs += extract_occupancy_distance([res.events], trend, occupancy_ref)
        del res  # not held while the next replication is read
    if not moving:
        raise ValueError("no runs to calibrate from")
    nfd, nfd_diag = fit_nfd(samples)
    dists = moving_distance_stats(moving)
    missing = [name for name in _MOVING_DISTANCE.values() if dists[name] is None]
    if missing:
        raise FitDegenerateError(f"no moving-distance observations for {missing}")
    dmodel, ddiag = fit_distance_curve(obs)
    return CalibrationReport(
        nfd=nfd,
        nfd_diag=nfd_diag,
        **{name: dists[name] for name in _MOVING_DISTANCE.values()},
        distance_model=dmodel,
        distance_diag=ddiag,
        moving_distance_std=dists["std"],
        scenario_filter=f"{trend}+{occupancy_ref}",
    )


class ReplicationMismatch(ValueError):
    """A replication's micro step or macro-grid length differs from the
    first replication's; ``index`` is its position in the run set."""

    def __init__(self, index: int, what: str, value: float, first: float, unit: str):
        super().__init__(f"{what} {value:g} {unit} differs from the first replication's "
                         f"{first:g} {unit}")
        self.index = index


def micro_series_on_macro_grid(results: Iterable[RunResult], dt_macro_s: float) -> dict:
    """Block-mean micro series per replication on the macro step grid.

    Returns arrays of shape (n_seeds, n_macro_steps) for n_on (occupied
    spots), n_off, n_active, and the Edie speed v (NaN where no vehicle time).
    ``results`` may be any iterable: each replication is binned and released
    before the next one is read. A replication whose micro step or number of
    macro steps differs from the first one's raises ReplicationMismatch.
    """
    out = {"n_on": [], "n_off": [], "n_active": [], "v": []}
    steps = None
    for res in results:  # not enumerate(), whose cached tuple holds the last one
        index = len(out["v"])
        if steps is None:
            dt_sim = res.dt_sim
            steps = whole_steps(dt_macro_s, dt_sim, "macro step", "micro step")
        elif res.dt_sim != dt_sim:
            raise ReplicationMismatch(index, "micro step", res.dt_sim, dt_sim, "s")
        for k, v in _macro_grid_means(res, steps).items():
            out[k].append(v)
        if len(out["v"][-1]) != len(out["v"][0]):
            raise ReplicationMismatch(
                index, "macro-grid length", len(out["v"][-1]), len(out["v"][0]), "steps"
            )
        del res  # not held while the next replication is read
    return {k: np.array(v) for k, v in out.items()}


def _macro_grid_means(res: RunResult, steps: int) -> dict:
    """One replication's series as means (v: Edie speed) over blocks of
    ``steps`` micro steps."""
    s = res.series
    n_on = s["occ_on"] * res.summary.on_street_capacity  # occ_on = n_on / capacity
    dist = macro_blocks(s["dist_km"], steps).sum(axis=1)
    time_vh = macro_blocks(s["active"], steps).sum(axis=1) * res.dt_sim / 3600.0
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.where(time_vh > 0, dist / time_vh, np.nan)
    return {
        "n_on": macro_blocks(n_on, steps).mean(axis=1),
        "n_off": macro_blocks(s["n_off"], steps).mean(axis=1),
        "n_active": macro_blocks(s["active"], steps).mean(axis=1),
        "v": v,
    }


def validate(macro: MacroTrajectories, micro: dict) -> dict:
    """Macro-vs-micro consistency metrics per quantity.

    ``micro`` holds per-seed arrays on the macro grid (see
    micro_series_on_macro_grid). The peak relative error normalizes by the
    peak of the micro replication mean; the envelope fraction is the share of
    steps where the macro value lies inside the micro min-max band.
    """
    n_steps = macro.n_steps
    quantities = {
        "n_on": macro.n_on[1:],
        "n_off": macro.n_off[1:],
        "n_active": macro.n[1:],
        "v": macro.v[1:],
    }
    metrics = {}
    for name, mseries in quantities.items():
        arr = micro[name]
        if arr.shape[1] != n_steps:
            raise ValueError(f"{name}: micro grid has {arr.shape[1]} steps, macro {n_steps}")
        mean = np.nanmean(arr, axis=0)
        lo = np.nanmin(arr, axis=0)
        hi = np.nanmax(arr, axis=0)
        ok = ~np.isnan(mean)
        err = np.abs(mseries[ok] - mean[ok])
        peak = float(np.max(np.abs(mean[ok]))) if ok.any() else 0.0
        metrics[name] = {
            "peak_relative_error": float(err.max() / peak) if peak > 0 else 0.0,
            "rmse": float(np.sqrt(np.mean(err**2))) if ok.any() else 0.0,
            "envelope_fraction": float(
                np.mean((mseries[ok] >= lo[ok] - 1e-12) & (mseries[ok] <= hi[ok] + 1e-12))
            )
            if ok.any()
            else 0.0,
        }
    return metrics
