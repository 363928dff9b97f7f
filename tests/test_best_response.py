import math
import warnings

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
from jamgame.core import require_feasible
from jamgame.waterfill import EPS_SOLVE

from conftest import alloc, make_params, random_instance, simplex_grid


def _bisect_multiplier(params, tx) -> float:
    """Doubling-and-bisection search for the jammer budget multiplier.

    Halves u until the closed-form total exceeds the budget, doubles it until
    the total falls short, then bisects to |total - J| <= EPS_SOLVE*max(1, J).
    The reference the breakpoint search is checked against.
    """
    target = params.j_budget

    def total(u: float) -> float:
        return float(jam_closed_form(params, tx, u).sum())

    lo = hi = 1.0
    while total(lo) <= target:
        lo *= 0.5
    while total(hi) >= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gap = total(mid) - target
        if abs(gap) <= EPS_SOLVE * max(1.0, target):
            return mid
        if gap > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _kkt_violation_in_units_of_u(params, tx, jam, u: float) -> float:
    """Largest jammer KKT violation, as a fraction of u, recomputed in logs.

    lambda_k / u = 1 - (alpha_j/2) * a_k / (b_k*(a_k + b_k)) / u, with
    a_k = alpha_t*T_k and b_k = alpha_j*J_k + N_k.  It must vanish on jammed
    channels and be nonnegative on the others.  Logs keep every magnitude
    from 1e-300 to 1e300 exact to rounding, where kkt_report's difference of
    reciprocals cancels once a_k is far below b_k.
    """
    worst = 0.0
    for t, j, n in zip(tx.powers, jam.powers, params.noise):
        a = params.alpha_t * float(t)
        b = params.alpha_j * float(j) + float(n)
        ratio = 0.0
        if a > 0.0:
            ratio = math.exp(
                math.log(0.5 * params.alpha_j) + math.log(a) - math.log(b)
                - math.log(a + b) - math.log(u)
            )
        lam = 1.0 - ratio
        worst = max(worst, abs(lam) if j > 0.0 else -lam)
    return worst


magnitudes = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)


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

    def test_tiny_tx_power_passes_kkt(self):
        # alpha_t*T_1 = 1e-26 far below alpha_j*J_1 + N_1 = 2e-10: the rate
        # gradient there must not cancel to 0
        params = make_params([1e-10, 1.0], 1e-26, 1e-10)
        tx = alloc([1e-26, 0.0], 1e-26)
        jam, state = jam_best_response(params, tx)
        np.testing.assert_allclose(jam.powers, [1e-10, 0.0], rtol=1e-12)
        assert state.u == pytest.approx(1.25e-7, rel=1e-12)
        assert kkt_report(params, tx, jam, state).ok()

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


class TestKktReport:
    def test_silent_transmitter_residuals_are_positive_zeros(self):
        # the residuals of the canonical state are the constants a separate
        # branch once returned for it, bit for bit: a -0.0 fails
        rng = np.random.default_rng(71)
        for trial in range(200):
            params = random_instance(rng, m=int(rng.integers(1, 9)))
            if trial % 3 == 2:
                scale = 10.0 ** rng.uniform(-3.0, 3.0, size=5)
                params = make_params(
                    params.noise * scale[0], params.t_budget * scale[1],
                    params.j_budget * scale[2], params.alpha_t * scale[3],
                    params.alpha_j * scale[4],
                )
            tx = alloc(np.zeros(params.m), params.t_budget)
            jam, state = jam_best_response(params, tx)
            report = kkt_report(params, tx, jam, state)
            got = (report.stationarity, report.complementarity,
                   report.dual_violation, report.primal_gap)
            gap = abs(float(jam.powers.sum()) - params.j_budget)
            assert [x.hex() for x in got] == [x.hex() for x in (0.0, 0.0, 0.0, gap)]
            assert report.ok()

    def test_flagged_state_is_measured_like_any_other(self, asym3):
        tx = alloc([0.0, 0.0, 0.0], 4.0)
        jam, _ = jam_best_response(asym3, tx)
        lambdas = [0.25, 2.0, 0.5]
        state = JammerKktState(u=0.0, lambdas=lambdas, degenerate=True)
        report = kkt_report(asym3, tx, jam, state)
        assert report.stationarity == max(lambdas)
        assert report.dual_violation == 0.0
        assert not report.ok()


class TestMultiplierSearch:
    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(53)
        for m in (1, 2, 3, 5, 8, 64, 512, 4096):
            for trial in range(4):
                params = make_params(
                    noise=rng.uniform(0.5, 8.0, size=m),
                    t_budget=float(rng.uniform(0.5, 3.0)) * m,
                    j_budget=float(rng.uniform(0.2, 3.0)) * m,
                    alpha_t=float(rng.uniform(0.5, 2.0)),
                    alpha_j=float(rng.uniform(0.5, 2.0)),
                )
                powers = sample_simplex(rng, 1, m, params.t_budget)[0]
                if m > 1 and trial % 2:
                    # idle transmitter channels: the jammer must skip them
                    powers[rng.random(m) < 0.3] = 0.0
                    powers[0] = max(powers[0], 1.0)
                    powers *= params.t_budget / powers.sum()
                tx = alloc(powers, params.t_budget)
                _, state = jam_best_response(params, tx)
                u_ref = _bisect_multiplier(params, tx)
                assert abs(state.u - u_ref) <= 1e-11 * u_ref, (m, trial)

    def test_one_active_channel_is_exact(self, symmetric2):
        # c = 2*(J + N) = 4 and a = 2 give u = 2*2 / (4*(4 + 4)) = 1/8
        tx = alloc([2.0, 0.0], 2.0)
        jam, state = jam_best_response(symmetric2, tx)
        assert state.u == 0.125
        assert jam.powers.tolist() == [1.0, 0.0]
        assert state.lambdas.tolist() == [0.0, 0.125]
        assert kkt_report(symmetric2, tx, jam, state).stationarity == 0.0

    @pytest.mark.parametrize(
        "params, tx",
        [
            (make_params([1.0, 2.0], 1e-300, 1.0), alloc([5e-301, 5e-301], 1e-300)),
            (make_params([1.0, 2.0], 1.0, 1e-300), alloc([0.5, 0.5], 1.0)),
        ],
        ids=["t_budget-1e-300", "j_budget-1e-300"],
    )
    def test_tiny_budget_gets_a_certified_response(self, params, tx):
        jam, state = jam_best_response(params, tx)
        require_feasible(jam, params.j_budget, params.m, "jam")
        assert kkt_report(params, tx, jam, state).ok()
        with np.errstate(all="raise"):
            jam_closed_form(params, tx, state.u)

    @pytest.mark.parametrize("m", [2, 64, 1024, 65536])
    def test_few_closed_form_evaluations(self, m, closed_form_calls):
        rng = np.random.default_rng(m)
        params = make_params(rng.uniform(0.5, 8.0, size=m), 2.0 * m, float(m))
        for _ in range(3 if m < 65536 else 1):
            tx = alloc(sample_simplex(rng, 1, m, params.t_budget)[0], params.t_budget)
            closed_form_calls.clear()
            jam_best_response(params, tx)
            # at least one: a search that stops calling jam_closed_form is
            # no longer counted, and must not pass for a fast one
            assert 0 < len(closed_form_calls) <= 24

    @given(
        noise=st.lists(magnitudes, min_size=1, max_size=6),
        t_budget=magnitudes,
        j_budget=magnitudes,
        alpha_t=magnitudes,
        alpha_j=magnitudes,
        weights=st.lists(st.integers(0, 9), min_size=6, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_over_extreme_magnitudes(
        self, noise, t_budget, j_budget, alpha_t, alpha_j, weights
    ):
        # An answer, certified in units of u, or a typed error; never a warning.
        params = make_params(noise, t_budget, j_budget, alpha_t, alpha_j)
        split = np.array(weights[: params.m], dtype=float)
        split[0] += split.sum() == 0.0
        tx = alloc(split / split.sum() * t_budget, t_budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                jam, state = jam_best_response(params, tx)
            except ValueError:
                return
        require_feasible(jam, j_budget, params.m, "jam")
        assert _kkt_violation_in_units_of_u(params, tx, jam, state.u) <= EPS_KKT


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

    def test_no_cancellation_when_tx_is_tiny(self):
        # exact value -(alpha_j/2) * a / ((a + b) * b), with a = 1e-20, b = 1
        params = make_params([1.0, 1.0], 1.0, 1.0, alpha_j=3.0)
        grad = jam_rate_gradient(params, [1e-20, 1.0], [0.0, 0.0])
        assert grad[0] == pytest.approx(-1.5e-20, rel=1e-15, abs=0.0)
        assert grad[1] == pytest.approx(-0.75, rel=1e-15)

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

    def test_copies_the_callers_lambdas(self):
        lam = np.zeros(3)
        state = JammerKktState(u=0.5, lambdas=lam)
        assert lam.flags.writeable
        lam[0] = 1.0
        assert state.lambdas.tolist() == [0.0, 0.0, 0.0]
        assert not state.lambdas.flags.writeable

    def test_degenerate_requires_zero_u(self):
        with pytest.raises(ValueError):
            JammerKktState(u=0.3, lambdas=np.zeros(2), degenerate=True)
        state = JammerKktState(u=0.0, lambdas=np.zeros(2), degenerate=True)
        assert state.degenerate
