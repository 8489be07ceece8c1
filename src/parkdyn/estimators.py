"""Distance-to-park estimators with fitting and a Monte-Carlo screening
oracle. The macro model reads an estimator's value as a cruising distance.

Kinds and their parameters, all in km:

  exp-distance        L = a * exp(b * O)
  geometric           L = d_p / (1 - O)
  modified-geometric  L = d_np / (1 - O^m) + d / (1 - O)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_PARAM_NAMES = {
    "exp-distance": {"a", "b"},
    "geometric": {"d_p"},
    "modified-geometric": {"d_np", "d", "m"},
}
KINDS = tuple(_PARAM_NAMES)
_SINGULAR = ("geometric", "modified-geometric")


class SingularOccupancyError(ValueError):
    """Occupancy hit the estimator's pole; caller decides saturation policy."""


class FitDegenerateError(ValueError):
    """Observations cannot identify the model parameters."""


@dataclass(frozen=True)
class DistanceModel:
    kind: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        missing = _PARAM_NAMES[self.kind] - set(self.params)
        if missing:
            raise ValueError(f"{self.kind}: missing parameters {sorted(missing)}")
        if self.kind == "exp-distance" and self.params["a"] <= 0:
            raise ValueError("exponential kinds need a > 0")

    @functools.cached_property
    def is_singular(self) -> bool:
        return self.kind in _SINGULAR


def evaluate(model: DistanceModel, occupancy: float) -> float:
    """Estimator value at the given occupancy fraction."""
    O = occupancy
    if not (0.0 <= O <= 1.0):
        raise ValueError("occupancy must lie in [0, 1]")
    p = model.params
    if model.kind == "exp-distance":
        return p["a"] * math.exp(p["b"] * O)
    if O >= 1.0:
        raise SingularOccupancyError(f"{model.kind} undefined at occupancy 1")
    if model.kind == "geometric":
        return p["d_p"] / (1.0 - O)
    return p["d_np"] / (1.0 - O ** p["m"]) + p["d"] / (1.0 - O)


def evaluate_clamped(model: DistanceModel, occupancy: float) -> float:
    """evaluate() with occupancy clamped to 0.999 for the singular kinds."""
    cap = 0.999 if model.is_singular else 1.0
    return evaluate(model, cap if cap < occupancy else occupancy)  # min(occupancy, cap)


def _gof(y, yhat):
    resid = y - yhat
    rmse = float(np.sqrt(np.mean(resid**2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"rmse": rmse, "r2": r2}


def fit(observations, kind: str) -> tuple[DistanceModel, dict[str, float]]:
    """Least-squares fit of one estimator kind to (occupancy, value) pairs.

    Exponential kinds are log-linearized; the modified-geometric kind is fit
    with a bounded nonlinear solver. Returns the model and {rmse, r2}.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    obs = [(float(o), float(v)) for o, v in observations]
    n_params = len(_PARAM_NAMES[kind])
    if len(obs) < n_params:
        raise FitDegenerateError(f"{kind} needs at least {n_params} observations")
    O = np.array([o for o, _ in obs])
    y = np.array([v for _, v in obs])
    if np.any((O < 0) | (O >= 1)):
        raise ValueError("occupancies must lie in [0, 1)")
    if len(np.unique(O)) < 2:
        raise FitDegenerateError("all occupancies equal")

    if kind == "exp-distance":
        if np.any(y <= 0):
            raise ValueError("exponential kinds need positive values")
        b, ln_a = np.polyfit(O, np.log(y), 1)
        model = DistanceModel(kind, {"a": float(np.exp(ln_a)), "b": float(b)})
    elif kind == "geometric":
        g = 1.0 / (1.0 - O)
        model = DistanceModel(kind, {"d_p": float(np.dot(y, g) / np.dot(g, g))})
    else:
        g = 1.0 / (1.0 - O)
        d0 = max(float(np.dot(y, g) / np.dot(g, g)), 1e-9)

        def resid(p):
            d_np, d, m = p
            return d_np / (1.0 - O**m) + d * g - y

        from scipy.optimize import least_squares  # here: runs that fit nothing skip scipy

        sol = least_squares(
            resid,
            x0=[d0, d0, 5.0],
            bounds=([0.0, 0.0, 1.0], [np.inf, np.inf, 1e3]),
        )
        model = DistanceModel(
            "modified-geometric",
            {"d_np": float(sol.x[0]), "d": float(sol.x[1]), "m": float(sol.x[2])},
        )

    yhat = np.array([evaluate(model, o) for o in O])
    return model, _gof(y, yhat)


def monte_carlo_screening(occupancy: float, trials: int, rng: np.random.Generator) -> float:
    """Empirical mean number of spots screened until a free one is found.

    Each spot is an independent Bernoulli trial with success probability
    1 - occupancy, so the count is geometric with mean 1/(1 - occupancy).
    """
    if not (0.0 <= occupancy < 1.0):
        raise ValueError("occupancy must lie in [0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = rng.geometric(1.0 - occupancy, size=trials)
    return float(draws.mean())
