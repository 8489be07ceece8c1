import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parkdyn import macromodel
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import (
    ConservationError,
    MacroParams,
    PREFIX_CACHE_SIZE,
    MacroState,
    NfdModel,
    PrefixCache,
    StepFlows,
    macro_step,
    nfd_speed,
    redeparture_flows,
    redeparture_flows_uniform,
    redeparture_table,
    simulate_macro,
    split_demand,
    uniform_profile,
)
from parkdyn.network import DurationDistribution

PAPER_NFD = NfdModel(55.2, 151.2, 142.1)
DT = 10.0 / 3600.0


def make_params(**kw):
    defaults = dict(
        nfd=PAPER_NFD,
        distance_model=DistanceModel("exp-distance", {"a": 5.2e-11, "b": 24.4}),
        duration=DurationDistribution("uniform", 0.0, 1.0),
        N_on=1139,
        N_off=100,
        l_m_on=1.0,
        l_m_off=0.9,
        l_m_pass=1.1,
        l_off=0.3,
        v_on_f=30.0,
        v_off_f=15.0,
        dt=DT,
        alpha_on=0.0,
        alpha_off=0.0,
        beta=0.3,
    )
    defaults.update(kw)
    return MacroParams(**defaults)


class TestNfdSpeed:
    def test_midpoint_is_half_v0(self):
        assert nfd_speed(PAPER_NFD, 151.2) == pytest.approx(27.6, abs=1e-12)

    def test_empty_network(self):
        assert nfd_speed(PAPER_NFD, 0.0) == pytest.approx(41.039087194019764)

    def test_decreasing_to_zero(self):
        assert nfd_speed(PAPER_NFD, 1e6) < 1e-9

    @given(st.floats(0, 5000), st.floats(0, 5000))
    def test_strictly_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo > 1e-9:
            assert nfd_speed(PAPER_NFD, hi) < nfd_speed(PAPER_NFD, lo)

    def test_validation(self):
        with pytest.raises(ValueError):
            NfdModel(0.0, 10.0, 5.0)
        with pytest.raises(ValueError):
            nfd_speed(PAPER_NFD, -1.0)


class TestSplitDemand:
    def test_symmetric(self):
        p = make_params()
        q_on, q_off = split_demand(10.0, 2.0, 2.0, p)
        assert q_on == pytest.approx(5.0)
        assert q_off == pytest.approx(5.0)

    def test_price_insensitive_when_beta_zero(self):
        p = make_params(beta=0.0)
        a = split_demand(10.0, 0.0, 9.0, p)
        b = split_demand(10.0, 9.0, 0.0, p)
        assert a == pytest.approx(b)

    def test_on_share_value(self):
        p = make_params(alpha_on=0.5, alpha_off=0.5, beta=0.3)
        q_on, _ = split_demand(1.0, 5.0, 2.0, p)
        assert q_on == pytest.approx(0.289050497374996)

    def test_rejects_negative_inflow(self):
        with pytest.raises(ValueError):
            split_demand(-1.0, 0.0, 0.0, make_params())

    def test_overflowing_gap_takes_the_logit_limit(self):
        # exp(800) overflows a float; the on-street share tends to 0
        assert split_demand(10.0, 800.0, 0.0, make_params(beta=1.0)) == (0.0, 10.0)

    def test_missing_facility_gets_no_demand(self):
        assert split_demand(10.0, 5.0, 2.0, make_params(alpha_off=-math.inf)) == (10.0, 0.0)
        assert split_demand(10.0, 5.0, 2.0, make_params(alpha_on=-math.inf)) == (0.0, 10.0)


class TestRedepartures:
    def test_single_cohort_uniform(self):
        dur = DurationDistribution("uniform", 0.0, 1.0)
        o_c = [0.0, 100.0] + [0.0] * 50
        zeros = [0.0] * 52
        q_on, q_off = redeparture_flows(o_c, zeros, zeros, dur, 52, DT)
        assert q_on == pytest.approx(100.0 / 360.0)
        assert q_off == 0.0

    def test_empty_history(self):
        dur = DurationDistribution("uniform", 0.0, 1.0)
        assert redeparture_flows([0.0], [0.0], [0.0], dur, 1, DT) == (0.0, 0.0)

    def test_general_equals_uniform_simplification(self):
        # the closed-form constant-rate path must match the CDF sum exactly
        rng = np.random.default_rng(42)
        dur = DurationDistribution("uniform", 0.0, 1.0)
        for _ in range(25):
            k = int(rng.integers(2, 360))
            o_c = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
            o_m = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
            q_o = [0.0] + np.minimum(rng.uniform(0, 1, size=k - 1), o_m[1:]).tolist()
            a = redeparture_flows(o_c, o_m, q_o, dur, k, DT)
            b = redeparture_flows_uniform(o_c, o_m, q_o, 1.0, k, DT)
            assert abs(a[0] - b[0]) <= 1e-12
            assert abs(a[1] - b[1]) <= 1e-12

    def test_macro_step_weights_match_loop_oracle(self):
        # macro_step's vectorised re-departure sum against the per-cohort loop
        dur = DurationDistribution(
            "table", xs=(0.0, 0.1, 0.4, 1.5, 3.0), cdf_values=(0.0, 0.05, 0.5, 0.9, 1.0)
        )
        p = make_params(duration=dur, N_on=10**6, N_off=10**6)
        weights = p.redeparture_weights(400)
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 400))
            o_c = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
            o_m = [0.0] + rng.uniform(0, 5, size=k - 1).tolist()
            q_o = [0.0] + (np.asarray(o_m[1:]) * rng.uniform(0, 1, size=k - 1)).tolist()
            o_off = (np.asarray(o_m) - np.asarray(q_o)).tolist()
            state = MacroState(n_on=sum(o_c), n_off=sum(o_m) - sum(q_o), k=k - 1,
                               o_c_hist=o_c, o_off_hist=o_off, q_off_on_hist=q_o)
            state.cum_inflow = state.n_on + state.n_off + state.in_circuit(p.k_off)
            want = redeparture_flows(o_c, o_m, q_o, dur, k, p.dt)
            flows = macro_step(state, 0.0, 0.0, 0.0, p, weights)
            got = (flows.q_out_on, flows.q_out_off)
            for g, w in zip(got, want):
                assert w > 0.0
                assert abs(g - w) <= 1e-12 * w

    def test_off_street_subtracts_overflow(self):
        dur = DurationDistribution("uniform", 0.0, 1.0)
        o_m = [0.0, 10.0, 0.0]
        q_o = [0.0, 4.0, 0.0]
        _, q_off = redeparture_flows([0.0] * 3, o_m, q_o, dur, 3, DT)
        assert q_off == pytest.approx(6.0 * DT / 1.0)


def first_step(state, p, q_in_on=0.0, q_in_off=0.0, q_in_pass=0.0):
    """One macro step from ``state`` as step 1; its held mass is the inflow
    so far, so the step's own conservation check holds."""
    state.cum_inflow = state.held(p.k_off)
    return macro_step(state, q_in_on, q_in_off, q_in_pass, p, p.redeparture_weights(1))


class TestProductionsAndOutflows:
    def test_no_cruisers_no_cruise_outflow(self):
        state = MacroState(n_m_on=5.0, n_m_pass=5.0)
        flows = first_step(state, make_params())
        assert flows.o_c == 0.0
        assert state.n_on == 0.0

    def test_little_formula_share(self):
        # P_m = 500 veh km/hr split by family share over mean trip lengths
        p = make_params(l_m_on=1.0, dt=1.0 / 360.0)
        state = MacroState(n_m_on=10.0, n_m_pass=40.0)
        n = state.n_active()
        v = nfd_speed(p.nfd, n)
        expected = 500.0 * 10.0 / 50.0 * (1.0 / 360.0) / 1.0
        first_step(state, p)
        o_m_on = state.n_c  # with no cruisers yet, none park this step
        got = o_m_on * 500.0 / (n * v)  # rescale to the stated P_m
        assert got == pytest.approx(expected)

    def test_no_free_spots_blocks_parking(self):
        state = MacroState(n_c=50.0, n_on=100.0)
        assert first_step(state, make_params(N_on=100)).o_c == 0.0

    def test_rejects_negative_accumulation(self):
        with pytest.raises(ValueError):
            first_step(MacroState(n_c=-1.0), make_params())


class TestOverflow:
    def test_k_off_half_up(self):
        assert make_params().k_off == 7  # 0.3/(15 * 10s) = 7.2 steps
        assert make_params(l_off=0.25).k_off == 6  # 6.0 exactly
        assert make_params(v_off_f=16.0).k_off == 7  # 6.75 rounds up

    def test_no_overflow_with_slack(self):
        state = MacroState(n_m_off=10.0, n_off=50.0)
        assert first_step(state, make_params(), q_in_off=1.0).q_off_on == 0.0

    def test_overflow_value(self):
        # a short lot trip lets all 10 + 2 searchers arrive in one step
        p = make_params(N_off=100, l_m_off=0.01)
        state = MacroState(n_m_off=10.0, n_off=98.0)
        q = first_step(state, p, q_in_off=2.0).q_off_on
        assert q == pytest.approx(10.0)  # 12 entering vs 2 free
        assert state.n_off == 100.0


class TestMacroStep:
    def test_zero_state_stays_zero(self):
        p = make_params()
        state = MacroState()
        macro_step(state, 0, 0, 0, p, p.redeparture_weights(1))
        assert state.n_active() == 0.0
        assert state.n_on == 0.0 and state.n_off == 0.0

    def test_lot_cohort_accumulates(self):
        p = make_params()
        state = MacroState()
        weights = p.redeparture_weights(61)
        q_out_off = macro_step(state, 0.0, 10.0, 0.0, p, weights).q_out_off
        for _ in range(60):
            q_out_off += macro_step(state, 0.0, 0.0, 0.0, p, weights).q_out_off
        # with no overflow, the lot balance is exactly arrivals minus
        # re-departures (Eq. 15e with the overflow term at zero)
        assert sum(state.q_off_on_hist) == 0.0
        assert state.n_off == pytest.approx(sum(state.o_off_hist) - q_out_off, abs=1e-9)
        assert state.n_off > 7.0  # most of the cohort still parked after ~10 min

    def test_conservation_on_random_run(self):
        p = make_params(N_on=300, N_off=50)
        rng = np.random.default_rng(5)
        state = MacroState()
        weights = p.redeparture_weights(360)
        for k in range(360):
            macro_step(state, rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0, 3), p, weights)
        # macro_step itself raises on any conservation residual > 1e-9
        assert state.k == 360

    def test_capacities_respected(self):
        p = make_params(N_on=50, N_off=10)
        state = MacroState()
        weights = p.redeparture_weights(360)
        for _ in range(360):
            macro_step(state, 3.0, 1.0, 1.0, p, weights)
            assert state.n_on <= 50.0 + 1e-9
            assert 0.0 <= state.n_off <= 10.0 + 1e-9

    def test_rejects_negative_inflow(self):
        with pytest.raises(ValueError):
            p = make_params()
            macro_step(MacroState(), -1.0, 0.0, 0.0, p, p.redeparture_weights(1))


class TestSimulateMacro:
    def test_zero_demand_all_zero(self):
        p = make_params()
        traj = simulate_macro(np.zeros(36), np.zeros(36), np.zeros((36, 2)), p)
        assert traj.n.max() == 0.0
        assert traj.n_on.max() == 0.0

    def test_sustained_demand_fills_lot(self):
        p = make_params(N_off=100, alpha_off=0.0)
        n = 360
        traj = simulate_macro(
            uniform_profile(1200, n), uniform_profile(1500, n), np.zeros((n, 2)), p
        )
        assert traj.n_off.max() == pytest.approx(100.0, abs=1e-6)
        assert np.mean(traj.n_off[200:] > 95.0) > 0.9  # stays near capacity

    def test_step_size_convergence(self):
        def peak(dt):
            p = make_params(dt=dt)
            n = int(round(1.0 / dt))
            traj = simulate_macro(
                uniform_profile(1200, n), uniform_profile(1500, n), np.zeros((n, 2)), p
            )
            return traj.n_on.max()

        a, b = peak(10.0 / 3600.0), peak(20.0 / 3600.0)
        assert abs(a - b) / a < 0.02

    def test_deterministic(self):
        p = make_params()
        n = 120
        park, pas = uniform_profile(400, n), uniform_profile(900, n)
        prices = np.tile((1.5, 0.5), (n, 1))
        t1 = simulate_macro(park, pas, prices, p)
        t2 = simulate_macro(park, pas, prices, p)
        assert np.array_equal(t1.n_on, t2.n_on)
        assert np.array_equal(t1.v, t2.v)

    def test_mismatched_profiles_rejected(self):
        p = make_params()
        with pytest.raises(ValueError):
            simulate_macro(np.zeros(10), np.zeros(11), np.zeros((10, 2)), p)


_ACC_NAMES = ("n_m_on", "n_m_off", "n_m_pass", "n_c", "n_on", "n_off", "n", "v", "O_on")


def _state_bytes(s: MacroState) -> list[bytes]:
    scalars = [s.n_m_off, s.n_m_on, s.n_m_pass, s.n_c, s.n_off, s.n_on, s.k]
    scalars += [s.cum_inflow, s.cum_exit]
    hists = (s.o_c_hist, s.o_off_hist, s.q_off_on_hist)
    return [np.asarray(scalars, dtype=float).tobytes()] + [np.asarray(h).tobytes() for h in hists]


class TestHistoryBuffers:
    """simulate_macro fills private history buffers in place; no array a
    caller holds is ever written."""

    N = 60

    def run(self, state=None):
        # a small lot, so that the overflow history is not all zeros
        p = make_params(N_on=150, N_off=10)
        n = self.N
        prices = np.tile((1.0, 0.0), (n, 1))
        return simulate_macro(uniform_profile(300, n), uniform_profile(200, n), prices, p, state)

    def test_initial_state_and_shared_copies_untouched(self):
        state = self.run().final_state
        shared = state.copy()  # shares the history arrays
        before = _state_bytes(state)
        after = self.run(state).final_state
        assert _state_bytes(state) == before
        assert _state_bytes(shared) == before
        assert after.k == state.k + self.N

    def test_final_histories_hold_k_plus_one_entries(self):
        first = self.run().final_state
        assert first.q_off_on_hist.max() > 0.0
        for final in (first, self.run(first).final_state):
            for h in (final.o_c_hist, final.o_off_hist, final.q_off_on_hist):
                assert len(h) == final.k + 1

    def test_runs_from_one_state_are_byte_identical(self):
        state = self.run().final_state
        a, b = self.run(state), self.run(state)
        assert _state_bytes(a.final_state) == _state_bytes(b.final_state)
        for name in ("n_c", "n_on", "n_off", "v", "o_c", "q_off_on", "q_out_on", "q_out_off"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_macro_step_on_a_returned_state_leaves_its_arrays(self):
        state = self.run().final_state
        hists = (state.o_c_hist, state.o_off_hist, state.q_off_on_hist)
        before = [h.tobytes() for h in hists]
        p = make_params(N_on=150, N_off=10)
        macro_step(state, 1.0, 1.0, 1.0, p, p.redeparture_weights(state.k + 1))
        assert [h.tobytes() for h in hists] == before
        assert len(state.o_c_hist) == state.k + 1


class TestOneKernel:
    """simulate_macro and a loop of macro_step advance a state alike, bit
    for bit."""

    N = 72

    @staticmethod
    def params(dt):
        # a small lot, so that it overflows
        return make_params(N_on=150, N_off=12, dt=dt)

    @staticmethod
    def demand(n, seed):
        rng = np.random.default_rng(seed)
        park, pas = rng.uniform(0.0, 4.0, n), rng.uniform(0.0, 3.0, n)
        # the price row changes every 12 steps
        prices = np.repeat(rng.uniform(0.0, 4.0, (n // 12, 2)), 12, axis=0)
        return park, pas, prices

    @staticmethod
    def stepped(state, park, pas, prices, p):
        """The trajectory columns of one macro_step per step."""
        state = state.copy()
        weights = p.redeparture_weights(state.k + len(park))
        cols = {name: [] for name in (*_ACC_NAMES, *StepFlows._fields)}

        def record():
            n = state.n_active()
            row = (state.n_m_on, state.n_m_off, state.n_m_pass, state.n_c, state.n_on,
                   state.n_off, n, nfd_speed(p.nfd, n), state.n_on / p.N_on)
            for name, x in zip(_ACC_NAMES, row):
                cols[name].append(x)

        record()
        for q_park, q_pass, (tau_on, tau_off) in zip(park, pas, prices):
            q_in_on, q_in_off = split_demand(float(q_park), float(tau_on), float(tau_off), p)
            flows = macro_step(state, q_in_on, q_in_off, float(q_pass), p, weights)
            for name, x in zip(StepFlows._fields, flows):
                cols[name].append(x)
            record()
        return {name: np.array(xs) for name, xs in cols.items()}, state

    @pytest.mark.parametrize("dt_s, k_off", [(10.0, 7), (200.0, 0)])
    @pytest.mark.parametrize("mid_run", [False, True], ids=["empty", "mid-run"])
    def test_simulate_macro_equals_macro_step_loop(self, dt_s, k_off, mid_run):
        p = self.params(dt_s / 3600.0)
        assert p.k_off == k_off
        state = MacroState()
        if mid_run:
            state = simulate_macro(*self.demand(self.N, 1), p).final_state
        park, pas, prices = self.demand(self.N, 2)
        traj = simulate_macro(park, pas, prices, p, state)
        want, final = self.stepped(state, park, pas, prices, p)
        assert traj.q_off_on.max() > 0.0
        for name, col in want.items():
            assert getattr(traj, name).tobytes() == col.tobytes(), name
        assert _state_bytes(traj.final_state) == _state_bytes(final)


class TestPriceRows:
    """m price rows, each in force for n/m of the n steps, run as the same
    prices given one row per step, bit for bit."""

    N = TestOneKernel.N

    def assert_same(self, a, b):
        for name in ("t", *_ACC_NAMES, *StepFlows._fields):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert _state_bytes(a.final_state) == _state_bytes(b.final_state)

    def run(self, rows):
        p = TestOneKernel.params(DT)
        state = simulate_macro(*TestOneKernel.demand(self.N, 1), p).final_state
        park, pas, _ = TestOneKernel.demand(self.N, 2)
        return simulate_macro(park, pas, rows, p, state)

    def test_one_interval_and_step_rows_of_one_price_agree(self):
        per_step = self.run(np.tile((1.5, 0.5), (self.N, 1)))
        assert per_step.q_off_on.max() > 0.0
        for m in (1, 6):
            self.assert_same(self.run(np.tile((1.5, 0.5), (m, 1))), per_step)

    def test_interval_rows_equal_their_per_step_expansion(self):
        rows = np.random.default_rng(3).uniform(0.0, 4.0, (6, 2))
        self.assert_same(self.run(rows), self.run(np.repeat(rows, self.N // 6, axis=0)))

    @pytest.mark.parametrize("m", [3, 0])
    def test_rows_that_do_not_divide_the_steps_rejected(self, m):
        with pytest.raises(ValueError, match=rf"^{m} price rows do not divide the 10 steps$"):
            simulate_macro(np.ones(10), np.ones(10), np.zeros((m, 2)), make_params())


    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2,), (6, 2, 1), (6, 1)])
    def test_prices_of_another_shape_rejected(self, shape):
        # a (2, 3) array holds three (tau_on, tau_off) pairs as numbers, but
        # not as rows
        want = rf"^prices must have shape \(m, 2\), got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=want):
            simulate_macro(np.ones(6), np.ones(6), np.zeros(shape), make_params())


class TestPrefixCache:
    """Runs through a PrefixCache resume from the longest cached prefix of
    their price rows and return a fresh run's bits."""

    N = 24

    @staticmethod
    def start(dt=DT):
        p = TestOneKernel.params(dt)
        state = simulate_macro(*TestOneKernel.demand(TestOneKernel.N, 1), p).final_state
        park, pas, _ = TestOneKernel.demand(TestPrefixCache.N, 2)
        return p, state, park, pas

    @staticmethod
    def schedules():
        """For m = 2, 4 and 12 rows: a base schedule, and for every j < m a
        schedule that shares its first j rows and differs in row j."""
        rng = np.random.default_rng(5)
        out = []
        for m in (2, 4, 12):
            base = rng.uniform(0.0, 4.0, (m, 2))
            out.append(base)
            for j in range(m):
                other = base.copy()
                other[j:] = rng.uniform(0.0, 4.0, (m - j, 2))
                out.append(other)
        return out

    @staticmethod
    def bits(traj):
        arrays = [getattr(traj, name) for name in ("t", *_ACC_NAMES, *StepFlows._fields)]
        s = traj.final_state
        scalars = [s.n_m_off, s.n_m_on, s.n_m_pass, s.n_c, s.n_off, s.n_on, s.k,
                   s.cum_inflow, s.cum_exit]
        arrays += [np.asarray(scalars, dtype=float), s.o_c_hist, s.o_off_hist, s.q_off_on_hist]
        return [a.view(np.int64) for a in arrays]

    def assert_same(self, a, b):
        for x, y in zip(self.bits(a), self.bits(b), strict=True):
            assert x.shape == y.shape and np.array_equal(x, y)

    # over TestOneKernel's two steps: the overflow re-enters after 7 steps,
    # or in its own step
    @pytest.mark.parametrize(
        "order, dt_s, k_off",
        [pytest.param(order, dt_s, k_off, id=order + suffix)
         for dt_s, k_off, suffix in [(10.0, 7, ""), (200.0, 0, "-k_off0")]
         for order in ("forward", "backward", "shuffled")],
    )
    @pytest.mark.parametrize("capacity", [1, PREFIX_CACHE_SIZE, 10**6])
    def test_cached_runs_equal_fresh_runs(self, capacity, order, dt_s, k_off, monkeypatch):
        monkeypatch.setattr(macromodel, "PREFIX_CACHE_SIZE", capacity)
        p, state, park, pas = self.start(dt_s / 3600.0)
        assert p.k_off == k_off
        assert k_off == 0 or state.in_circuit(k_off) > 0.0  # overflow in the circuit
        schedules = self.schedules()
        fresh = [simulate_macro(park, pas, rows, p, state) for rows in schedules]
        assert max(traj.q_off_on.max() for traj in fresh) > 0.0  # the lot overflows
        index = list(range(len(schedules)))
        if order == "backward":
            index.reverse()
        elif order == "shuffled":
            np.random.default_rng(7).shuffle(index)
        cache = PrefixCache()
        for i in index + index:  # the second pass finds its prefixes cached
            traj = simulate_macro(park, pas, schedules[i], p, state, cache)
            self.assert_same(traj, fresh[i])
            assert len(cache) <= capacity
        assert state.k == TestOneKernel.N  # the start state is not advanced

    def test_resumes_from_the_longest_cached_prefix(self, monkeypatch):
        p, state, park, pas = self.start()
        simulated = []
        run = macromodel._run

        def counting(state, inflows, params, weights):
            acc, flows = run(state, inflows, params, weights)
            simulated.append(len(flows) // len(StepFlows._fields))
            return acc, flows

        monkeypatch.setattr(macromodel, "_run", counting)
        monkeypatch.setattr(macromodel, "PREFIX_CACHE_SIZE", 10**6)
        cache = PrefixCache()
        rows = np.random.default_rng(9).uniform(0.0, 4.0, (4, 2))
        simulate_macro(park, pas, rows, p, state, cache)
        assert simulated == [6, 6, 6, 6]  # one row at a time, from the start
        for j in (3, 1, 2, 0):
            other = rows.copy()
            other[j] += 1.0
            simulated.clear()
            self.assert_same(simulate_macro(park, pas, other, p, state, cache),
                             simulate_macro(park, pas, other, p, state))
            assert simulated == [6] * (4 - j) + [6] * 4  # then the uncached run, row by row

    @pytest.mark.parametrize("dt_s, k_off", [(10.0, 7), (200.0, 0)], ids=["k_off7", "k_off0"])
    @pytest.mark.parametrize("m", [4, 24])
    def test_cached_prefix_states_equal_fresh_final_states(self, m, dt_s, k_off):
        p, state, park, pas = self.start(dt_s / 3600.0)
        assert p.k_off == k_off
        per_row = self.N // m
        rows = np.random.default_rng(11).uniform(0.0, 4.0, (m, 2))
        cache = PrefixCache()
        simulate_macro(park, pas, rows, p, state, cache)
        cached = range(max(1, m - PREFIX_CACHE_SIZE), m)
        assert len(cache) == len(cached)
        for j in cached:
            other = rows.copy()
            other[j] += 1.0
            got, boundary, _ = cache.lookup(park, pas, other, p, state)
            assert got == j
            fresh = simulate_macro(park[: j * per_row], pas[: j * per_row], rows[:j], p, state)
            assert _state_bytes(boundary) == _state_bytes(fresh.final_state)
            for name in ("o_c_hist", "o_off_hist", "q_off_on_hist"):
                assert len(getattr(boundary, name)) == boundary.k + 1, name

    def test_per_step_schedule_at_scale(self, monkeypatch):
        # one price row per step over 3,600 steps: a run keeps no boundary
        # state or history copy beyond what the cache holds. 16 MB is 5x the
        # 3.0 MB these two runs peak at; a boundary state with copied
        # histories for every row took 160 MB
        p = TestOneKernel.params(DT)
        n = 3600
        park, pas, _ = TestOneKernel.demand(n, 2)
        rows = np.random.default_rng(13).uniform(0.0, 4.0, (n, 2))
        other = rows.copy()
        other[-5:] += 1.0
        fresh = [simulate_macro(park, pas, r, p) for r in (rows, other)]
        assert fresh[0].q_off_on.max() > 0.0
        simulated = []
        run = macromodel._run

        def counting(state, inflows, params, weights):
            acc, flows = run(state, inflows, params, weights)
            simulated.append(len(flows) // len(StepFlows._fields))
            return acc, flows

        monkeypatch.setattr(macromodel, "_run", counting)
        cache = PrefixCache()
        tracemalloc.start()
        try:
            cached = [simulate_macro(park, pas, r, p, None, cache) for r in (rows, other)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for a, b in zip(cached, fresh, strict=True):
            self.assert_same(a, b)
        assert len(cache) == PREFIX_CACHE_SIZE
        assert sum(simulated) == n + 5  # the second run resumes at row n - 5
        assert peak < 16e6, peak

    def test_cache_of_another_forecast_or_start_state_rejected(self):
        p, state, park, pas = self.start()
        rows = np.zeros((2, 2))
        cache = PrefixCache()
        simulate_macro(park, pas, rows, p, state, cache)
        other_state = state.copy()
        other_state.o_c_hist = state.o_c_hist.copy()
        other_state.o_c_hist[3] += 1e-12
        for args in (
            (park * 2.0, pas, rows, p, state),
            (park, pas[::-1], rows, p, state),
            (park, pas, rows, p, MacroState()),
            (park, pas, rows, p, other_state),
            (park, pas, rows, TestOneKernel.params(DT / 2), state),
        ):
            with pytest.raises(ValueError, match="^a prefix cache serves the runs of one "):
                simulate_macro(*args, cache)
        simulate_macro(park, pas, rows, p, state.copy(), cache)  # an equal state is the same
        # a 1-row run has no prefix to look up, but is checked all the same
        one_row = PrefixCache()
        simulate_macro(park, pas, rows[:1], p, state, one_row)
        with pytest.raises(ValueError, match="^a prefix cache serves the runs of one "):
            simulate_macro(park * 2.0, pas, rows[:1], p, state, one_row)


class TestChecks:
    """simulate_macro raises what each step's checks raise."""

    N = 24

    def run(self, park=1.0, pas=1.0, state=None):
        p = make_params()
        park, pas = np.full(self.N, park), np.full(self.N, pas)
        return simulate_macro(park, pas, np.zeros((self.N, 2)), p, state)

    def test_negative_park_inflow(self):
        with pytest.raises(ValueError, match=r"^inflow must be >= 0$"):
            self.run(park=-1.0)

    def test_negative_pass_inflow(self):
        with pytest.raises(ValueError, match=r"^inflows must be >= 0$"):
            self.run(pas=-1.0)

    @pytest.mark.parametrize("field, message", [
        ("n_on", "accumulations must be >= 0"),
        # a negative total is caught first, by the speed of the start state
        ("n_c", "accumulation must be >= 0"),
    ])
    def test_negative_initial_accumulation(self, field, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            self.run(state=MacroState(**{field: -1.0}))

    def test_unbalanced_initial_state(self):
        state = self.run().final_state
        state.cum_inflow += 1e-6 * state.cum_inflow
        with pytest.raises(ConservationError, match=rf"^step {state.k + 1}: conservation residual "):
            self.run(state=state)

    def test_lot_emptier_than_its_cohorts(self):
        state = self.run().final_state
        assert state.o_off_hist.max() > 0.0
        # nobody parked or bound for the lot, yet its cohorts re-depart
        state.n_m_off = state.n_off = 0.0
        with pytest.raises(ConservationError, match=r"^negative accumulation "):
            self.run(state=state)


class TestRedepartureTable:
    DURATIONS = (
        DurationDistribution("uniform", 0.0, 1.0),
        DurationDistribution(
            "table", xs=(0.0, 0.1, 0.4, 1.5, 3.0), cdf_values=(0.0, 0.05, 0.5, 0.9, 1.0)
        ),
    )

    @pytest.mark.parametrize("dt", [DT, 200.0 / 3600.0])
    @pytest.mark.parametrize("duration", DURATIONS, ids=["uniform", "table"])
    def test_cached_weights_match_step_weights(self, duration, dt):
        n = 400
        want = np.array(duration.step_weights(dt, n))
        p = make_params(duration=duration, dt=dt)
        for table in (redeparture_table(duration, dt, n), p.redeparture_weights(n)):
            assert table[::-1].tobytes() == want.tobytes()  # lag 0 is last
            assert table.flags.c_contiguous
        assert p.redeparture_weights(n) is redeparture_table(duration, dt, n)

    def test_cached_weights_are_read_only(self):
        table = make_params().redeparture_weights(50)
        with pytest.raises(ValueError):
            table[0] = 1.0


@settings(max_examples=20, deadline=None)
@given(
    park=st.floats(0.0, 3.0),
    pas=st.floats(0.0, 5.0),
    tau_on=st.floats(0.0, 10.0),
    n_on_cap=st.integers(20, 400),
)
def test_invariants_under_random_demand(park, pas, tau_on, n_on_cap):
    p = make_params(N_on=n_on_cap, N_off=30)
    n = 90
    traj = simulate_macro(
        np.full(n, park), np.full(n, pas), np.tile((tau_on, 0.0), (n, 1)), p
    )
    assert traj.n_on.max() <= n_on_cap + 1e-9
    assert traj.n_off.max() <= 30 + 1e-9
    assert traj.n_on.min() >= -1e-12
    assert traj.o_c.min() >= -1e-12
    assert traj.q_off_on.min() >= -1e-12
