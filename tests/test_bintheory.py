import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkdyn.bintheory import (
    BinParams,
    branch_discontinuity,
    brute_force_envelope,
    critical_density,
    envelope_with_cruising,
    two_bin_speed,
    unstable_area,
)

P = BinParams(50.0, 10.0, 100.0)
NO_CRUISING = BinParams(50.0, 50.0, 100.0)  # v_c = v_f


def test_binparams_validation():
    with pytest.raises(ValueError):
        BinParams(50.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        BinParams(50.0, 60.0, 100.0)
    with pytest.raises(ValueError):
        BinParams(50.0, 10.0, 0.0)


@pytest.mark.parametrize(
    "v_c,expected", [(50.0, 0.0), (10.0, 80.0), (25.0, 50.0)]
)
def test_critical_density(v_c, expected):
    assert math.isclose(critical_density(BinParams(50.0, v_c, 100.0)), expected)


class TestTwoBinSpeed:
    def test_homogeneous_equals_greenshields(self):
        assert math.isclose(two_bin_speed(30, 30, NO_CRUISING), 35.0)

    def test_heterogeneous_matches_closed_form(self):
        # k1=20, k2=40: V = 33.33 both by bin mixing and by the closed form
        v = two_bin_speed(20, 40, NO_CRUISING)
        assert math.isclose(v, 100.0 / 3.0)
        K = 30.0
        closed = 50.0 - (50.0 / 100.0) * (2 * K - 20 * 40 / K)
        assert math.isclose(v, closed)

    def test_cruising_caps_bin_two(self):
        assert math.isclose(two_bin_speed(0, 30, P), 10.0)

    def test_empty_network_convention(self):
        assert two_bin_speed(0, 0, P) == 50.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            two_bin_speed(-1, 10, P)
        with pytest.raises(ValueError):
            two_bin_speed(10, 150, P)


class TestEnvelopes:
    def test_no_cruising_gridlock_at_half_jam(self):
        vmax, vmin = envelope_with_cruising(50.0, NO_CRUISING)
        assert math.isclose(vmin, 0.0)
        assert math.isclose(vmax, 25.0)

    def test_no_cruising_converges_at_jam(self):
        assert envelope_with_cruising(100.0, NO_CRUISING) == (0.0, 0.0)

    def test_no_cruising_congested_branch(self):
        _, vmin = envelope_with_cruising(75.0, NO_CRUISING)
        assert math.isclose(vmin, 50.0 * (3 - 1.5 - 100.0 / 75.0))

    def test_cruising_low_density_floor(self):
        # K below k_c/2: the worst case is everyone in bin 2 at v_c
        assert math.isclose(envelope_with_cruising(30.0, P)[1], 10.0)

    def test_cruising_vmax_middle_branch(self):
        vmax, _ = envelope_with_cruising(40.0, P)
        assert math.isclose(vmax, 20.0)  # v_c + (v_f-v_c) k_c / (8K)

    def test_cruising_beyond_critical_density(self):
        vmax, _ = envelope_with_cruising(90.0, P)
        assert math.isclose(vmax, 5.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            envelope_with_cruising(-0.1, P)
        with pytest.raises(ValueError):
            envelope_with_cruising(100.1, NO_CRUISING)

    @pytest.mark.parametrize("v_c", [10.0, 20.0, 30.0, 40.0, 50.0])
    def test_continuity_at_branch_points(self, v_c):
        assert branch_discontinuity(BinParams(50.0, v_c, 100.0)) <= 1e-9


class TestBruteForceOracle:
    def test_empty_network(self):
        assert brute_force_envelope(0.0, NO_CRUISING) == (50.0, 50.0)

    def test_matches_formulas_on_coarse_grid(self):
        for K in np.arange(0.0, 100.5, 2.5):
            bmax, bmin = brute_force_envelope(float(K), P, grid_step=0.01)
            fmax, fmin = envelope_with_cruising(float(K), P)
            assert abs(bmax - fmax) <= 0.05
            assert abs(bmin - fmin) <= 0.05

    def test_no_cruising_matches_formulas(self):
        for K in np.arange(0.0, 100.5, 2.5):
            bmax, bmin = brute_force_envelope(float(K), NO_CRUISING, grid_step=0.01)
            fmax, fmin = envelope_with_cruising(float(K), NO_CRUISING)
            assert abs(bmax - fmax) <= 0.05
            assert abs(bmin - fmin) <= 0.05

    def test_rejects_bad_grid_step(self):
        with pytest.raises(ValueError):
            brute_force_envelope(10.0, P, grid_step=0.0)


@settings(max_examples=60, deadline=None)
@given(
    K=st.floats(0.5, 99.5),
    frac=st.floats(0.0, 1.0),
    v_c=st.floats(5.0, 50.0) | st.just(50.0),
)
def test_every_split_lies_between_envelopes(K, frac, v_c):
    p = BinParams(50.0, v_c, 100.0)
    lo = max(0.0, 2 * K - 100.0)
    hi = min(100.0, 2 * K)
    k1 = lo + frac * (hi - lo)
    k2 = 2 * K - k1
    v = two_bin_speed(k1, k2, p)
    vmax, vmin = envelope_with_cruising(K, p)
    assert vmin - 1e-9 <= v <= vmax + 1e-9


class TestUnstableArea:
    def test_grows_as_cruising_slows(self):
        areas = [unstable_area(BinParams(50.0, v_c, 100.0)) for v_c in (10.0, 30.0, 45.0)]
        assert areas[0] > areas[1] > areas[2]

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            BinParams(50.0, 10.0, -1.0)
