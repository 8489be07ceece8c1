"""Closed-form NFD envelopes for a two-bin network with slow cruisers.

The network average density K relates to the bin densities through
k_1 + k_2 = 2K (equal bin lengths), so K is the mean of the two bins,
not their sum. All envelope formulas are expressed in K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import POSITIVE, check_fields, greenshields_speed, within


@dataclass(frozen=True)
class BinParams:
    v_f: float = within(POSITIVE)  # free-flow speed, km/hr
    v_c: float = within(POSITIVE)  # desired cruising speed, km/hr
    k_j: float = within(POSITIVE)  # jam density, veh/km

    def __post_init__(self):
        check_fields(self)
        if self.v_c > self.v_f:
            raise ValueError("need v_c <= v_f")


def critical_density(params: BinParams) -> float:
    """Density below which the desired cruising speed is attainable."""
    return (params.v_f - params.v_c) * params.k_j / params.v_f


def two_bin_speed(k_1: float, k_2: float, params: BinParams) -> float:
    """Space-mean speed of the two-bin system for a given density split.

    Every vehicle in bin 2 cruises at min(v_c, Greenshields), the worst case
    for that bin; v_c = v_f is the case without cruisers.
    """
    if not (0 <= k_1 <= params.k_j and 0 <= k_2 <= params.k_j):
        raise ValueError("bin densities must lie in [0, k_j]")
    if k_1 + k_2 == 0:
        return params.v_f
    v_1 = greenshields_speed(k_1, params.v_f, params.k_j)
    v_2 = min(params.v_c, greenshields_speed(k_2, params.v_f, params.k_j))
    return (k_1 * v_1 + k_2 * v_2) / (k_1 + k_2)


def _check_K(K: float, params: BinParams) -> None:
    if not (0 <= K <= params.k_j):
        raise ValueError("K must lie in [0, k_j]")


def envelope_with_cruising(K: float, params: BinParams) -> tuple[float, float]:
    """Upper/lower space-mean speed over all feasible splits when all bin-2
    vehicles cruise at v_c (worst case for bin 2).

    At v_c = v_f (no cruisers, k_c = 0) every branch that can be reached is
    the no-cruising envelope: the lower one hits zero already at K = k_j/2,
    where one bin can gridlock while the other is empty.
    """
    _check_K(K, params)
    v_f, v_c, k_j = params.v_f, params.v_c, params.k_j
    k_c = critical_density(params)

    if K <= k_c / 4:
        v_max = v_f - 2 * v_f * K / k_j
    elif K <= 3 * k_c / 4:
        v_max = v_c + (v_f - v_c) * k_c / (8 * K)
    elif K <= k_c:
        v_max = v_c + (v_f - v_c) * (2 - k_c / K) * (1 - K / k_c)
    else:
        v_max = v_f - v_f * K / k_j

    if K <= k_c / 2:
        v_min = v_c
    elif K <= k_j / 2:
        v_min = v_f - 2 * v_f * K / k_j
    elif K <= (k_c + k_j) / 2:
        v_min = v_c - v_c * k_j / (2 * K)
    else:
        v_min = v_f * (3 - 2 * K / k_j - k_j / K)
    return v_max, v_min


def branch_discontinuity(params: BinParams) -> float:
    """The largest jump of either with-cruising envelope across its six
    branch points, each stepped 1e-11 to either side within [0, k_j]."""
    k_c, k_j = critical_density(params), params.k_j
    d = 1e-11
    jumps = []
    for x in (k_c / 4, 3 * k_c / 4, k_c, k_c / 2, k_j / 2, (k_c + k_j) / 2):
        a = envelope_with_cruising(max(0.0, x - d), params)
        b = envelope_with_cruising(min(k_j, x + d), params)
        jumps.append(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
    return max(jumps)


def brute_force_envelope(
    K: float, params: BinParams, grid_step: float = 0.01
) -> tuple[float, float]:
    """Independent oracle: enumerate splits k_1 + k_2 = 2K on a density grid.

    At K=0 the single (0, 0) split is degenerate; the extrema are taken as the
    K->0 limit of the worst/best loading, so the oracle stays comparable with
    the piecewise envelopes there.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    _check_K(K, params)
    v_f, v_c, k_j = params.v_f, params.v_c, params.k_j
    lo = max(0.0, 2 * K - k_j)
    hi = min(k_j, 2 * K)
    if hi < lo:
        raise ValueError(f"no feasible split for K={K}")
    n = int(np.floor((hi - lo) / grid_step + 1e-9))
    k1 = lo + grid_step * np.arange(n + 1)
    if k1[-1] < hi - 1e-12:
        k1 = np.append(k1, hi)
    k2 = 2 * K - k1
    if K == 0:
        return v_f, v_c
    v1 = greenshields_speed(k1, v_f, k_j)
    v2 = np.minimum(v_c, greenshields_speed(k2, v_f, k_j))
    V = (k1 * v1 + k2 * v2) / (2 * K)
    return float(V.max()), float(V.min())


def unstable_area(params: BinParams) -> float:
    """Area between the envelopes over 2001 points K in [0, k_j] (km/hr * veh/km)."""
    Ks = np.linspace(0.0, params.k_j, 2001)
    gap = np.array([vmax - vmin for vmax, vmin in (envelope_with_cruising(K, params) for K in Ks)])
    return float(np.trapezoid(gap, Ks))


def envelope_sweep(params: BinParams, K_grid, brute_step: float):
    """The with-cruising envelopes over a K grid and their brute-force check.

    Returns a dict of arrays: K, v_max, v_min, v_max_brute and v_min_brute.
    """
    K_grid = np.asarray(K_grid, dtype=float)
    vmax = np.empty_like(K_grid)
    vmin = np.empty_like(K_grid)
    bmax = np.empty_like(K_grid)
    bmin = np.empty_like(K_grid)
    for i, K in enumerate(K_grid):
        vmax[i], vmin[i] = envelope_with_cruising(float(K), params)
        bmax[i], bmin[i] = brute_force_envelope(float(K), params, brute_step)
    return {"K": K_grid, "v_max": vmax, "v_min": vmin, "v_max_brute": bmax, "v_min_brute": bmin}
