import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkdyn.estimators import (
    DistanceModel,
    FitDegenerateError,
    SingularOccupancyError,
    evaluate,
    evaluate_clamped,
    fit,
    monte_carlo_screening,
)

GEOM = DistanceModel("geometric", {"d_p": 0.0075})
EXP_DIST = DistanceModel("exp-distance", {"a": 5.2e-11, "b": 24.4})


class TestEvaluate:
    def test_geometric_at_high_occupancy(self):
        assert math.isclose(evaluate(GEOM, 0.9), 0.075)

    def test_geometric_every_spot_free(self):
        assert evaluate(GEOM, 0.0) == 0.0075

    def test_exp_distance_calibrated_values(self):
        # 5.2e-11 * exp(24.4 * 0.95) and at occupancy 1, evaluated independently
        assert math.isclose(evaluate(EXP_DIST, 0.95), 0.6066656900750366)
        assert math.isclose(evaluate(EXP_DIST, 1.0), 2.0548905838310914)

    def test_singular_kinds_raise_at_full_occupancy(self):
        for model in (GEOM, DistanceModel("modified-geometric", {"d_np": 0.1, "d": 0.01, "m": 5.0})):
            with pytest.raises(SingularOccupancyError):
                evaluate(model, 1.0)

    def test_rejects_occupancy_outside_unit_interval(self):
        with pytest.raises(ValueError):
            evaluate(GEOM, -0.1)
        with pytest.raises(ValueError):
            evaluate(GEOM, 1.2)

    def test_clamped_saturation_policy(self):
        v = evaluate_clamped(GEOM, 1.0)
        assert math.isclose(v, 0.0075 / (1 - 0.999))
        assert evaluate_clamped(EXP_DIST, 1.0) == evaluate(EXP_DIST, 1.0)

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    def test_monotone_in_occupancy(self, a, b):
        lo, hi = sorted((a, b))
        for model in (
            GEOM,
            EXP_DIST,
            DistanceModel("modified-geometric", {"d_np": 0.08, "d": 0.0075, "m": 8.0}),
        ):
            assert evaluate(model, lo) <= evaluate(model, hi) + 1e-12

    @given(st.floats(0.0, 0.999999))
    def test_geometric_identity(self, O):
        assert math.isclose(evaluate(GEOM, O) * (1.0 - O), 0.0075, rel_tol=1e-12)

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.2), st.floats(1.0, 50.0))
    def test_modified_dominates_geometric(self, O, d_np, m):
        plain = DistanceModel("geometric", {"d_p": 0.0075})
        mod = DistanceModel("modified-geometric", {"d_np": d_np, "d": 0.0075, "m": m})
        assert evaluate(mod, O) >= evaluate(plain, O) - 1e-12


class TestFit:
    def test_exponential_exact_recovery(self):
        O = np.linspace(0.1, 0.95, 40)
        y = 1e-10 * np.exp(24.0 * O)
        model, diag = fit(list(zip(O, y)), "exp-distance")
        assert math.isclose(model.params["a"], 1e-10, rel_tol=1e-6)
        assert math.isclose(model.params["b"], 24.0, rel_tol=1e-6)
        assert diag["r2"] > 1 - 1e-9

    def test_exponential_with_noise(self):
        rng = np.random.default_rng(3)
        O = rng.uniform(0.2, 0.95, 200)
        y = 2e-4 * np.exp(8.0 * O) * (1 + 0.05 * rng.standard_normal(200))
        model, _ = fit(list(zip(O, y)), "exp-distance")
        assert abs(model.params["a"] - 2e-4) / 2e-4 < 0.10
        assert abs(model.params["b"] - 8.0) / 8.0 < 0.10

    def test_geometric_recovery(self):
        O = np.linspace(0.0, 0.9, 20)
        y = 0.0075 / (1 - O)
        model, _ = fit(list(zip(O, y)), "geometric")
        assert math.isclose(model.params["d_p"], 0.0075, rel_tol=1e-9)

    def test_modified_geometric_recovery(self):
        O = np.linspace(0.05, 0.95, 60)
        y = 0.09 / (1 - O**9.0) + 0.0075 / (1 - O)
        model, _ = fit(list(zip(O, y)), "modified-geometric")
        fitted = np.array([evaluate(model, o) for o in O])
        assert np.max(np.abs(fitted - y) / y) < 0.02

    def test_identical_points_degenerate(self):
        with pytest.raises(FitDegenerateError):
            fit([(0.5, 1.0), (0.5, 1.0)], "exp-distance")

    def test_too_few_observations(self):
        with pytest.raises(FitDegenerateError):
            fit([(0.5, 1.0)], "exp-distance")

    def test_nonpositive_values_rejected_for_exponentials(self):
        with pytest.raises(ValueError):
            fit([(0.1, 0.0), (0.5, 1.0)], "exp-distance")


class TestMonteCarloScreening:
    def test_matches_geometric_mean_at_high_occupancy(self):
        rng = np.random.default_rng(11)
        mean = monte_carlo_screening(0.9, 100_000, rng)
        se = math.sqrt(0.9) / (1 - 0.9) / math.sqrt(100_000)
        assert abs(mean - 10.0) < 3 * se

    def test_matches_geometric_mean_at_half(self):
        rng = np.random.default_rng(12)
        mean = monte_carlo_screening(0.5, 100_000, rng)
        se = math.sqrt(0.5) / 0.5 / math.sqrt(100_000)
        assert abs(mean - 2.0) < 3 * se

    def test_first_spot_free_limit(self):
        rng = np.random.default_rng(13)
        assert monte_carlo_screening(0.0, 1000, rng) == 1.0

    def test_converges_to_geometric_estimator(self):
        # mean spots * spacing approaches the geometric distance estimate
        rng = np.random.default_rng(14)
        O = 0.8
        mean = monte_carlo_screening(O, 100_000, rng)
        expected = evaluate(GEOM, O) / 0.0075
        se = math.sqrt(O) / (1 - O) / math.sqrt(100_000)
        assert abs(mean - expected) < 3 * se

    def test_rejects_full_occupancy(self):
        with pytest.raises(ValueError):
            monte_carlo_screening(1.0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            monte_carlo_screening(0.5, 0, np.random.default_rng(0))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DistanceModel("quadratic", {"a": 1.0})
    with pytest.raises(ValueError):
        fit([(0.1, 1.0), (0.2, 2.0)], "quadratic")


def test_missing_parameters_rejected():
    with pytest.raises(ValueError):
        DistanceModel("exp-distance", {"a": 1.0})
