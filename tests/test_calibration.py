import dataclasses
import math
import weakref

import numpy as np
import pytest

from parkdyn.calibration import (
    CalibrationReport,
    calibrate,
    estimate_moving_distances,
    extract_occupancy_distance,
    fit_distance_curve,
    fit_nfd,
    micro_series_on_macro_grid,
    nfd_samples,
    ReplicationMismatch,
    validate,
)
from parkdyn.estimators import FitDegenerateError
from parkdyn.macromodel import MacroTrajectories, NfdModel, nfd_speed
from parkdyn.microsim import Event, Simulation
from parkdyn.scenarios import desk_network, validation_scenario

PAPER = NfdModel(55.2, 151.2, 142.1)


def synth_samples(model, n_pts=400, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    ns = rng.uniform(0, 600, n_pts)
    vs = np.array([nfd_speed(model, x) for x in ns])
    if noise:
        vs = vs * (1 + noise * rng.standard_normal(n_pts))
    return list(zip(ns, vs))


class TestFitNfd:
    def test_noiseless_exact_recovery(self):
        model, diag = fit_nfd(synth_samples(PAPER))
        assert model.v0 == pytest.approx(55.2, rel=1e-6)
        assert model.n0 == pytest.approx(151.2, rel=1e-6)
        assert model.w == pytest.approx(142.1, rel=1e-6)
        assert diag["r2"] > 1 - 1e-9

    def test_paper_parameters_recovered_under_noise(self):
        model, _ = fit_nfd(synth_samples(PAPER, noise=0.02, seed=7))
        assert abs(model.v0 - 55.2) / 55.2 < 0.05
        assert abs(model.n0 - 151.2) / 151.2 < 0.05
        assert abs(model.w - 142.1) / 142.1 < 0.05

    def test_degenerate_single_bin(self):
        samples = [(100.0 + 0.01 * i, 30.0) for i in range(100)]
        with pytest.raises(FitDegenerateError):
            fit_nfd(samples)

    def test_too_few_samples(self):
        with pytest.raises(FitDegenerateError):
            fit_nfd([(10.0 * i, 40.0) for i in range(10)])

    def test_scale_consistency(self):
        base = synth_samples(PAPER, noise=0.02, seed=3)
        m1, _ = fit_nfd(base)
        m3, _ = fit_nfd([(n, 3.0 * v) for n, v in base])
        assert m3.v0 / m1.v0 == pytest.approx(3.0, rel=1e-5)
        assert m3.n0 == pytest.approx(m1.n0, rel=1e-4, abs=1e-3)
        assert m3.w == pytest.approx(m1.w, rel=1e-4, abs=1e-3)


def ev(vid, t, frm, to, dist, occ=0.5):
    return Event(vid, t, frm, to, "x", dist, occ, 0.0)


class TestMovingDistances:
    def test_segmentation_rule(self):
        # 1.2 km to the target, then 0.4 km cruising: family i gets 1.2,
        # the cruising segment is excluded here
        log = [ev(1, 10.0, "i", "iv", 1.2), ev(1, 60.0, "iv", "v", 0.4)]
        d = estimate_moving_distances([log])
        assert d["l_m_on"] == pytest.approx(1.2)
        assert d["l_m_off"] is None

    def test_direct_park_counts_for_family_i(self):
        d = estimate_moving_distances([[ev(1, 5.0, "i", "v", 0.9)]])
        assert d["l_m_on"] == pytest.approx(0.9)

    def test_replication_averaging(self):
        logs = [[ev(1, 5.0, "iii", "exited", 1.0)], [ev(2, 5.0, "iii", "exited", 2.0)]]
        d = estimate_moving_distances(logs)
        assert d["l_m_pass"] == pytest.approx(1.5)
        assert d["std"]["l_m_pass"] == pytest.approx(0.5)

    def test_empty_log_all_absent(self):
        d = estimate_moving_distances([[]])
        assert d["l_m_on"] is None and d["l_m_off"] is None and d["l_m_pass"] is None


class TestExtractOccupancyDistance:
    LOG = [
        ev(1, 10.0, "i", "iv", 1.0, occ=0.80),
        ev(1, 90.0, "iv", "v", 0.37, occ=0.86),
        ev(2, 20.0, "i", "iv", 1.0, occ=0.90),
        ev(2, 95.0, "iv", "v", 0.50, occ=0.85),
        ev(3, 30.0, "i", "iv", 1.0, occ=0.70),  # still cruising at the end
    ]

    def test_init_reference(self):
        obs = extract_occupancy_distance([self.LOG], trend="increasing", occupancy_ref="init")
        assert obs == [(0.80, 0.37)]

    def test_avg_reference(self):
        obs = extract_occupancy_distance([self.LOG], trend="increasing", occupancy_ref="avg")
        assert obs[0][0] == pytest.approx(0.83)

    def test_decreasing_filter(self):
        obs = extract_occupancy_distance([self.LOG], trend="decreasing", occupancy_ref="init")
        assert obs == [(0.90, 0.50)]

    def test_both_is_union(self):
        inc = extract_occupancy_distance([self.LOG], "increasing", "init")
        dec = extract_occupancy_distance([self.LOG], "decreasing", "init")
        both = extract_occupancy_distance([self.LOG], "both", "init")
        assert sorted(both) == sorted(inc + dec)

    def test_direct_park_zero_distance(self):
        log = [ev(4, 10.0, "i", "v", 1.1, occ=0.4)]
        obs = extract_occupancy_distance([log], "both", "init")
        assert obs == [(0.4, 0.0)]

    def test_rejects_unknown_filter(self):
        with pytest.raises(ValueError):
            extract_occupancy_distance([self.LOG], trend="sideways")
        with pytest.raises(ValueError):
            extract_occupancy_distance([self.LOG], occupancy_ref="end")


class TestDistanceCurve:
    def test_recovers_exponential_from_binned_data(self):
        rng = np.random.default_rng(1)
        O = rng.uniform(0.3, 0.99, 4000)
        d = 3e-4 * np.exp(8.0 * O)
        model, diag = fit_distance_curve(list(zip(O, d)))
        assert model.params["a"] == pytest.approx(3e-4, rel=0.05)
        assert model.params["b"] == pytest.approx(8.0, rel=0.05)

    def test_zeros_pull_bin_means(self):
        obs = [(0.5, 0.0)] * 10 + [(0.5, 1.0)] * 10 + [(0.9, 2.0)] * 20
        model, _ = fit_distance_curve(obs)
        assert model.params["a"] > 0

    def test_degenerate_without_positive_bins(self):
        with pytest.raises(FitDegenerateError):
            fit_distance_curve([(0.5, 0.0), (0.6, 0.0)])
        with pytest.raises(FitDegenerateError):
            fit_distance_curve([])


class TestValidate:
    def make_macro(self, n_steps=60, value=10.0):
        t = np.arange(n_steps + 1) * (10.0 / 3600.0)
        series = np.full(n_steps + 1, value)
        flows = np.zeros(n_steps)
        return MacroTrajectories(
            t=t, n_m_on=series, n_m_off=series, n_m_pass=series, n_c=series,
            n_on=series, n_off=series, n=series, v=series, O_on=series,
            o_c=flows, q_off_on=flows, q_out_on=flows, q_out_off=flows,
        )

    def micro_like(self, n_steps=60, value=10.0, n_seeds=3):
        arr = np.full((n_seeds, n_steps), value)
        return {"n_on": arr, "n_off": arr, "n_active": arr, "v": arr}

    def test_identity_zero_error(self):
        m = validate(self.make_macro(), self.micro_like())
        for q in m.values():
            assert q["peak_relative_error"] == 0.0
            assert q["rmse"] == 0.0
            assert q["envelope_fraction"] == 1.0

    def test_constant_offset(self):
        m = validate(self.make_macro(value=11.0), self.micro_like(value=10.0))
        assert m["n_on"]["peak_relative_error"] == pytest.approx(0.1)
        assert m["n_on"]["envelope_fraction"] == 0.0

    def test_misaligned_horizons_rejected(self):
        with pytest.raises(ValueError):
            validate(self.make_macro(n_steps=60), self.micro_like(n_steps=50))


@pytest.fixture(scope="module")
def runs():
    net = desk_network(rows=4, cols=4, total_spots=100, lot_capacity=15)
    sc = validation_scenario(
        parker_count=180, passer_count=700, captive_spots=40, cruise_speed=30.0
    )
    return [Simulation(net, sc, seed).run() for seed in range(4)]


class TestSegmentedDistancesAndPipeline:
    def test_segments_sum_to_total_distance(self, runs):
        res = runs[0]
        by_vehicle = {}
        for e in res.events:
            by_vehicle.setdefault(e.vehicle_id, 0.0)
            by_vehicle[e.vehicle_id] += e.dist_km
        for rec in res.vehicles:
            if rec.family_end == "exited":
                logged = by_vehicle.get(rec.vehicle_id, 0.0) + rec.circuits * res.l_off
                assert logged == pytest.approx(rec.dist_total, abs=1e-9)

    def test_full_calibration_report_roundtrip(self, runs, tmp_path):
        report = calibrate(runs)
        assert report.l_m_on > 0 and report.l_m_off > 0 and report.l_m_pass > 0
        assert report.distance_model.kind == "exp-distance"
        assert report.nfd.w > 0
        path = tmp_path / "calibration.json"
        report.save(path)
        again = CalibrationReport.load(path)
        assert again == report

    def test_low_cross_replication_variance(self, runs):
        d = estimate_moving_distances([r.events for r in runs])
        for key in ("l_m_on", "l_m_off", "l_m_pass"):
            assert d["std"][key] < 0.5 * d[key]  # variations are low

    def test_micro_grid_shapes(self, runs):
        grid = micro_series_on_macro_grid(runs, 10.0)
        n_steps = len(runs[0].series["t_s"]) // 10
        for key in ("n_on", "n_off", "n_active", "v"):
            assert grid[key].shape == (4, n_steps)


class _Log(list):
    """An event log that can be weakly referenced."""


def _owned(item):
    """A replication (or an event log) and the objects that hold its memory."""
    if isinstance(item, list):
        return [item]
    return [item, item.events, next(iter(item.series.values())).base]


def one_at_a_time(make, n):
    """Yield ``make(0) … make(n - 1)``; before each item is made, assert that
    nothing holds an earlier one."""
    refs = []
    for i in range(n):
        assert all(r() is None for r in refs), f"item {i - 1} still held when item {i} is read"
        item = make(i)
        refs = [weakref.ref(x) for x in _owned(item)]
        yield item
        del item


def fresh_copy(res):
    """A copy of a replication that owns its event log and series memory."""
    series = np.array([res.series[c] for c in res.series])
    return dataclasses.replace(res, events=_Log(res.events), series=dict(zip(res.series, series)))


class TestOneReplicationAtATime:
    def test_calibrate_from_an_iterator_equals_from_a_list(self, runs):
        from_list, from_iter = calibrate(runs), calibrate(iter(runs))
        for f in dataclasses.fields(CalibrationReport):
            assert getattr(from_iter, f.name) == getattr(from_list, f.name), f.name

    def test_calibrate_releases_each_replication(self, runs):
        gen = one_at_a_time(lambda i: fresh_copy(runs[i]), len(runs))
        assert calibrate(gen) == calibrate(runs)

    def test_macro_grid_releases_each_replication(self, runs):
        gen = one_at_a_time(lambda i: fresh_copy(runs[i]), len(runs))
        grid, expected = micro_series_on_macro_grid(gen, 10.0), micro_series_on_macro_grid(runs, 10.0)
        for key, arr in expected.items():
            assert grid[key].tobytes() == arr.tobytes(), key

    def test_occupancy_distance_releases_each_log(self, runs):
        gen = one_at_a_time(lambda i: _Log(runs[i].events), len(runs))
        assert extract_occupancy_distance(gen) == extract_occupancy_distance([r.events for r in runs])

    @pytest.mark.parametrize("empty", [[], iter([])], ids=["list", "iterator"])
    def test_empty_run_set_rejected(self, empty):
        with pytest.raises(ValueError, match="no runs to calibrate from"):
            calibrate(empty)

    def test_mixed_micro_steps_name_the_replication(self, runs):
        slow = dataclasses.replace(runs[1], dt_sim=2.0 * runs[1].dt_sim)
        with pytest.raises(ReplicationMismatch) as info:
            micro_series_on_macro_grid([runs[0], runs[0], slow, runs[0]], 10.0)
        assert info.value.index == 2
        assert "micro step 2 s differs from the first replication's 1 s" in str(info.value)

    def test_mixed_horizons_name_the_replication(self, runs):
        n = len(runs[1].series["t_s"]) // 2
        short = dataclasses.replace(runs[1], series={k: v[:n] for k, v in runs[1].series.items()})
        with pytest.raises(ReplicationMismatch) as info:
            micro_series_on_macro_grid([runs[0], short, runs[0]], 10.0)
        assert info.value.index == 1
        steps = len(runs[0].series["t_s"]) // 10
        assert (f"macro-grid length {steps // 2} steps differs from the first replication's "
                f"{steps} steps") in str(info.value)
