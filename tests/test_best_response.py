import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame import (
    JammerKktState,
    jam_best_response,
    jam_rate_gradient,
    kkt_report,
    sample_simplex,
    tx_best_response,
    utility,
    utility_batch,
)
from jamgame.best_response import EPS_KKT, EPS_OPT, jam_closed_form
from jamgame.waterfill import EPS_SOLVE

from conftest import alloc, make_params, random_instance, simplex_grid


class TestTxBestResponse:
    def test_symmetric(self, symmetric2):
        tx, v = tx_best_response(symmetric2, alloc([0.5, 0.5], 1.0))
        np.testing.assert_allclose(tx.powers, [1.0, 1.0], atol=1e-14)
        assert v == pytest.approx(2.5, abs=1e-14)

    def test_asymmetric_example(self):
        # floors alpha_j*jam + N = [2, 3]; level 4.5 pours [2.5, 1.5]
        params = make_params([1.0, 3.0], 4.0, 1.0)
        tx, v = tx_best_response(params, alloc([1.0, 0.0], 1.0))
        np.testing.assert_allclose(tx.powers, [2.5, 1.5], atol=1e-12)
        assert v == pytest.approx(4.5, abs=1e-12)

    def test_asymmetric_example_against_grid_oracle(self):
        params = make_params([1.0, 3.0], 4.0, 1.0)
        jam = alloc([1.0, 0.0], 1.0)
        tx, _ = tx_best_response(params, jam)
        best = max(
            utility_batch(params, x, jam.powers)[0]
            for x in simplex_grid(4.0, 2, 801)
        )
        assert utility(params, tx, jam) >= best - 1e-12

    def test_single_channel_takes_whole_budget(self):
        params = make_params([2.7], 3.0, 1.0)
        tx, _ = tx_best_response(params, alloc([1.0], 1.0))
        np.testing.assert_allclose(tx.powers, [3.0], atol=1e-14)

    def test_respects_attenuations(self):
        # alpha_t = 2 halves the poured power for the same effective budget
        params = make_params([1.0, 1.0], 1.0, 1.0, alpha_t=2.0)
        tx, v = tx_best_response(params, alloc([0.5, 0.5], 1.0))
        np.testing.assert_allclose(tx.powers, [0.5, 0.5], atol=1e-14)
        assert v == pytest.approx(2.5, abs=1e-14)

    def test_rejects_infeasible_jam(self, symmetric2):
        with pytest.raises(ValueError):
            tx_best_response(symmetric2, alloc([0.4, 0.4], 1.0))

    def test_optimality_against_random_deviations(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params = random_instance(rng)
            jam = alloc(sample_simplex(rng, 1, params.m, params.j_budget)[0], params.j_budget)
            tx, _ = tx_best_response(params, jam)
            base = utility(params, tx, jam)
            devs = sample_simplex(rng, 200, params.m, params.t_budget)
            assert float(utility_batch(params, devs, jam.powers).max()) <= base + EPS_OPT

    def test_waterfilling_slackness(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            params = random_instance(rng)
            jam = alloc(sample_simplex(rng, 1, params.m, params.j_budget)[0], params.j_budget)
            tx, v = tx_best_response(params, jam)
            floors = params.alpha_j * jam.powers + params.noise
            tol = EPS_SOLVE * max(1.0, v)
            for k in range(params.m):
                height = params.alpha_t * tx.powers[k] + floors[k]
                if tx.powers[k] > 0.0:
                    assert abs(height - v) <= tol
                else:
                    assert floors[k] >= v - tol


class TestJamClosedForm:
    def test_all_zero_tx_gives_zeros(self, symmetric2):
        out = jam_closed_form(symmetric2, alloc([0.0, 0.0], 2.0), 0.3)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_worked_example(self, symmetric2):
        # bracket: -2 - 2 + sqrt(4 + 4/0.125) = -4 + 6 = 2, so J_1 = 1
        out = jam_closed_form(symmetric2, alloc([2.0, 0.0], 2.0), 0.125)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_worked_example_satisfies_stationarity(self, symmetric2):
        out = jam_closed_form(symmetric2, alloc([2.0, 0.0], 2.0), 0.125)
        grad = jam_rate_gradient(symmetric2, [2.0, 0.0], out)
        # active channel: gradient + u = lambda = 0
        assert grad[0] + 0.125 == pytest.approx(0.0, abs=1e-12)

    def test_larger_multiplier_clamps_channel(self, symmetric2):
        # u = 0.5: bracket -4 + sqrt(12) is negative, channel clamps to 0
        out = jam_closed_form(symmetric2, alloc([2.0, 0.0], 2.0), 0.5)
        assert out[0] == 0.0
        assert math.sqrt(12.0) - 4.0 < 0.0

    def test_nonincreasing_in_u(self, symmetric2):
        tx = alloc([1.2, 0.8], 2.0)
        prev = None
        for u in np.geomspace(1e-3, 10.0, 40):
            out = jam_closed_form(symmetric2, tx, float(u))
            if prev is not None:
                assert np.all(out <= prev + 1e-12)
            prev = out

    def test_nondecreasing_in_tx_power(self):
        # the closed-form map T_k -> J_k is nondecreasing at fixed u
        params = make_params([1.0], 10.0, 1.0)
        for u in (0.05, 0.2, 1.0, 5.0):
            values = [
                jam_closed_form(params, alloc([t], 10.0), u)[0]
                for t in np.linspace(0.0, 10.0, 60)
            ]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("u", [0.0, -1.0, math.nan])
    def test_rejects_bad_multiplier(self, symmetric2, u):
        with pytest.raises(ValueError):
            jam_closed_form(symmetric2, alloc([1.0, 1.0], 2.0), u)

    def test_stable_at_large_u(self, symmetric2):
        # naive sqrt(a^2+s) - a would cancel; the result must stay exact zero
        out = jam_closed_form(symmetric2, alloc([2.0, 0.0], 2.0), 1e12)
        assert np.all(out >= 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestJamBestResponse:
    def test_single_channel(self):
        params = make_params([1.0], 1.0, 0.7)
        jam, state = jam_best_response(params, alloc([1.0], 1.0))
        np.testing.assert_allclose(jam.powers, [0.7], atol=1e-12)
        assert state.u > 0.0

    def test_symmetric(self, symmetric2):
        jam, state = jam_best_response(symmetric2, alloc([1.0, 1.0], 2.0))
        np.testing.assert_allclose(jam.powers, [0.5, 0.5], atol=1e-10)
        assert not state.degenerate

    def test_concentrated_tx_example(self, symmetric2):
        jam, state = jam_best_response(symmetric2, alloc([2.0, 0.0], 2.0))
        np.testing.assert_allclose(jam.powers, [1.0, 0.0], atol=1e-9)
        assert state.u == pytest.approx(0.125, abs=1e-9)

    def test_concentrated_tx_against_grid_oracle(self, symmetric2):
        tx = alloc([2.0, 0.0], 2.0)
        jam, _ = jam_best_response(symmetric2, tx)
        val = utility(symmetric2, tx, jam)
        worst = min(
            utility_batch(symmetric2, tx.powers, j)[0]
            for j in simplex_grid(1.0, 2, 801)
        )
        assert val <= worst + EPS_OPT

    def test_budget_met_exactly(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            params = random_instance(rng)
            tx = alloc(sample_simplex(rng, 1, params.m, params.t_budget)[0], params.t_budget)
            jam, _ = jam_best_response(params, tx)
            assert float(jam.powers.sum()) == pytest.approx(params.j_budget, rel=1e-12)

    def test_kkt_residuals_within_tolerance(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            params = random_instance(rng)
            tx = alloc(sample_simplex(rng, 1, params.m, params.t_budget)[0], params.t_budget)
            jam, state = jam_best_response(params, tx)
            report = kkt_report(params, tx, jam, state)
            assert report.ok(EPS_KKT), report

    def test_lambdas_reported_for_inactive_channels(self, symmetric2):
        jam, state = jam_best_response(symmetric2, alloc([2.0, 0.0], 2.0))
        # channel 2 is idle: its multiplier is still reported, equal to u
        assert jam.powers[1] == 0.0
        assert state.lambdas[1] == pytest.approx(state.u, abs=1e-12)
        assert state.lambdas[1] > 0.0

    def test_optimality_against_random_deviations(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            params = random_instance(rng)
            tx = alloc(sample_simplex(rng, 1, params.m, params.t_budget)[0], params.t_budget)
            jam, _ = jam_best_response(params, tx)
            base = utility(params, tx, jam)
            devs = sample_simplex(rng, 200, params.m, params.j_budget)
            assert float(utility_batch(params, tx.powers, devs).min()) >= base - EPS_OPT

    def test_degenerate_all_zero_tx(self, symmetric2):
        jam, state = jam_best_response(symmetric2, alloc([0.0, 0.0], 2.0))
        assert state.degenerate
        assert state.u == 0.0
        np.testing.assert_array_equal(state.lambdas, [0.0, 0.0])
        # canonical representative: noise-waterfilled allocation
        np.testing.assert_allclose(jam.powers, [0.5, 0.5], atol=1e-14)
        report = kkt_report(symmetric2, alloc([0.0, 0.0], 2.0), jam, state)
        assert report.ok()

    def test_rejects_infeasible_tx(self, symmetric2):
        with pytest.raises(ValueError):
            jam_best_response(symmetric2, alloc([1.0, 0.5], 2.0))


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(47)
        h = 1e-5
        for _ in range(20):
            params = random_instance(rng)
            tx = sample_simplex(rng, 1, params.m, params.t_budget)[0]
            jam = sample_simplex(rng, 1, params.m, params.j_budget)[0]
            grad = jam_rate_gradient(params, tx, jam)
            for k in range(params.m):
                up = jam.copy()
                up[k] += h
                down = jam.copy()
                down[k] -= h
                fd = (
                    utility_batch(params, tx, up)[0]
                    - utility_batch(params, tx, down)[0]
                ) / (2.0 * h)
                rel = abs(grad[k] - fd) / max(1.0, abs(grad[k]), abs(fd))
                assert rel <= 1e-6

    def test_zero_exactly_where_tx_is_zero(self, asym3):
        grad = jam_rate_gradient(asym3, [2.0, 0.0, 2.0], [0.3, 0.3, 0.4])
        assert grad[1] == 0.0
        assert grad[0] < 0.0 and grad[2] < 0.0


class TestJammerKktState:
    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            JammerKktState(u=0.0, lambdas=np.zeros(2))
        with pytest.raises(ValueError):
            JammerKktState(u=-0.5, lambdas=np.zeros(2))

    def test_degenerate_requires_zero_u(self):
        with pytest.raises(ValueError):
            JammerKktState(u=0.3, lambdas=np.zeros(2), degenerate=True)
        state = JammerKktState(u=0.0, lambdas=np.zeros(2), degenerate=True)
        assert state.degenerate
