import dataclasses
import math

import numpy as np
import pytest

from jamgame import (
    Allocation,
    RegimeLabel,
    jam_best_response,
    run_dynamics,
    sample_simplex,
    solve_nash,
    tx_best_response,
    utility,
    verify_nash,
    water_fill,
)
from jamgame.best_response import EPS_KKT
from jamgame.equilibrium import REGIME_LABELS, NashSolution, _multiplier, classify_regimes
from jamgame.waterfill import EPS_SOLVE

from conftest import alloc, make_params, random_instance


class TestSolveNash:
    def test_symmetric_two_channels(self, symmetric2):
        sol = solve_nash(symmetric2)
        assert sol.w == pytest.approx(1.5, abs=1e-12)
        assert sol.v == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(sol.jam.powers, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.tx.powers, [1.0, 1.0], atol=1e-12)
        assert sol.u == pytest.approx(1.0 / 7.5, abs=1e-12)
        assert sol.value == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
        assert sol.regimes == (RegimeLabel.CONTESTED, RegimeLabel.CONTESTED)

    def test_three_channel_example(self, asym3):
        sol = solve_nash(asym3)
        assert sol.w == pytest.approx(2.0, abs=1e-12)
        assert sol.v == pytest.approx(4.5, abs=1e-12)
        np.testing.assert_allclose(sol.jam.powers, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.tx.powers, [2.5, 1.5, 0.0], atol=1e-12)
        assert sol.u == pytest.approx(2.5 / 18.0, abs=1e-12)
        assert sol.value == pytest.approx(0.5 * math.log(3.375), abs=1e-12)
        assert sol.regimes == (
            RegimeLabel.CONTESTED,
            RegimeLabel.TX_ONLY,
            RegimeLabel.UNUSED,
        )
        # threshold identity at the solved multiplier
        w_back = sol.v * 1.0 / (2.0 * sol.u * sol.v + 1.0)
        assert w_back == pytest.approx(2.0, abs=1e-12)

    def test_single_channel(self, single1):
        sol = solve_nash(single1)
        np.testing.assert_allclose(sol.tx.powers, [1.0], atol=1e-14)
        np.testing.assert_allclose(sol.jam.powers, [1.0], atol=1e-14)
        assert sol.v == pytest.approx(3.0, abs=1e-14)
        assert sol.w == pytest.approx(2.0, abs=1e-14)
        assert sol.value == pytest.approx(0.5 * math.log(1.5), abs=1e-14)

    def test_value_matches_utility(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            params = random_instance(rng)
            sol = solve_nash(params)
            assert sol.value == pytest.approx(
                utility(params, sol.tx, sol.jam), abs=1e-14
            )

    def test_levels_ordered(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            params = random_instance(rng)
            sol = solve_nash(params)
            assert sol.v > sol.w > 0.0
            assert sol.u > 0.0

    def test_jammer_waterfills_on_noise(self):
        # headline structure: alpha_j*J_k = (w - N_k)+ exactly
        rng = np.random.default_rng(61)
        for _ in range(30):
            params = random_instance(rng)
            sol = solve_nash(params)
            ws = water_fill(params.noise, params.alpha_j * params.j_budget)
            np.testing.assert_array_equal(
                sol.jam.powers, ws.fills / params.alpha_j
            )
            expected = np.maximum(sol.w - params.noise, 0.0) / params.alpha_j
            np.testing.assert_allclose(sol.jam.powers, expected, atol=1e-12)

    def test_jam_best_response_agrees_with_construction(self):
        # independent KKT path reproduces the waterfilling equilibrium jammer
        rng = np.random.default_rng(67)
        for _ in range(20):
            params = random_instance(rng)
            sol = solve_nash(params)
            jam_kkt, _ = jam_best_response(params, sol.tx)
            assert float(np.max(np.abs(jam_kkt.powers - sol.jam.powers))) <= 1e-6

    def test_mutual_best_response(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            params = random_instance(rng)
            sol = solve_nash(params)
            tx_br, _ = tx_best_response(params, sol.jam)
            assert float(np.max(np.abs(tx_br.powers - sol.tx.powers))) <= 1e-9

    def test_threshold_identity_pair(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            params = random_instance(rng)
            sol = solve_nash(params)
            aj = params.alpha_j
            w_back = sol.v * aj / (2.0 * sol.u * sol.v + aj)
            assert abs(w_back - sol.w) <= EPS_SOLVE * max(1.0, sol.w)
            u_back = aj * (sol.v - sol.w) / (2.0 * sol.v * sol.w)
            assert abs(u_back - sol.u) <= EPS_SOLVE * max(1.0, sol.u)

    def test_unused_channels_get_nothing(self):
        rng = np.random.default_rng(79)
        seen_unused = 0
        for _ in range(60):
            params = random_instance(rng)
            sol = solve_nash(params)
            for k in range(params.m):
                if params.noise[k] >= sol.v:
                    seen_unused += 1
                    assert sol.tx.powers[k] == 0.0
                    assert sol.jam.powers[k] == 0.0
        assert seen_unused > 0  # the draw ranges do produce such channels

    def test_high_power_uniform_limit(self):
        for noise in ([1.0, 3.0, 6.0], [0.5, 0.9, 2.0, 4.0]):
            budget = 1e6 * max(noise)
            params = make_params(noise, budget, budget)
            sol = solve_nash(params)
            m = len(noise)
            t_dev = np.max(np.abs(sol.tx.powers - budget / m)) / (budget / m)
            j_dev = np.max(np.abs(sol.jam.powers - budget / m)) / (budget / m)
            assert t_dev <= 1e-3
            assert j_dev <= 1e-3
            assert all(r is RegimeLabel.CONTESTED for r in sol.regimes)

    @pytest.mark.parametrize(
        "t_budget, j_budget, named",
        [(1e-300, 1.0, "t_budget 1e-300"), (1.0, 1e-300, "j_budget 1e-300"),
         (1.0, 1e300, "t_budget 1 ")],
    )
    def test_budget_below_float_resolution_rejected(self, t_budget, j_budget, named):
        # each budget fills no channel of the floors it is poured over: the
        # noise for the jammer, max(N_k, w) for the transmitter
        params = make_params([1.0, 2.0], t_budget, j_budget)
        with pytest.raises(ValueError, match="below the float resolution") as info:
            solve_nash(params)
        assert str(info.value).startswith(named)

    def test_huge_budgets_keep_the_multiplier(self):
        # 2*v*w overflows here; the multiplier itself is an ordinary float
        params = make_params([1.0, 2.0], 1e300, 1e300)
        sol = solve_nash(params)
        assert sol.u == pytest.approx(5e-301, rel=1e-12)
        assert verify_nash(params, sol).ok


class TestEnvelope:
    @pytest.mark.parametrize(
        "budget, shadow_price",
        [
            ("t_budget", lambda params, sol: params.alpha_t / (2.0 * sol.v)),
            ("j_budget", lambda params, sol: -sol.u),
        ],
    )
    def test_value_gradient_is_the_shadow_price(self, budget, shadow_price):
        # dV/dT = alpha_t/(2v) and dV/dJ = -u, by central differences of the value
        rng = np.random.default_rng(67)
        for _ in range(200):
            params = random_instance(rng, m=int(rng.integers(1, 9)))
            exact = shadow_price(params, solve_nash(params))
            h = 1e-6 * getattr(params, budget)
            up, down = (
                solve_nash(dataclasses.replace(params, **{budget: getattr(params, budget) + d}))
                for d in (h, -h)
            )
            assert (up.value - down.value) / (2.0 * h) == pytest.approx(exact, rel=1e-6)


class TestMultiplier:
    def test_bit_for_bit_with_plain_formula(self):
        rng = np.random.default_rng(59)
        for _ in range(2000):
            w = float(10.0 ** rng.uniform(-100.0, 100.0))
            v = w * float(1.0 + 10.0 ** rng.uniform(-12.0, 6.0))
            alpha_j = float(10.0 ** rng.uniform(-3.0, 3.0))
            plain = alpha_j * (v - w) / (2.0 * v * w)
            assert _multiplier(alpha_j, v, w) == plain

    @pytest.mark.parametrize("v, w", [(1e300, 1e-300), (2.0, 1e-320)])
    def test_out_of_range_multiplier_rejected(self, v, w):
        with pytest.raises(ValueError, match="outside the float range"):
            _multiplier(1e10, v, w)


class TestClassifyRegimes:
    def assert_codes(self, codes, expected):
        assert isinstance(codes, np.ndarray)
        assert codes.dtype == np.int8
        assert not codes.flags.writeable
        np.testing.assert_array_equal(codes, expected)

    def test_three_channel_example(self, asym3):
        codes = classify_regimes(asym3.noise, v=4.5, w=2.0)
        self.assert_codes(codes, [2, 1, 0])
        assert tuple(REGIME_LABELS[c] for c in codes) == (
            RegimeLabel.CONTESTED,
            RegimeLabel.TX_ONLY,
            RegimeLabel.UNUSED,
        )

    def test_noise_equal_to_v_is_unused(self):
        self.assert_codes(classify_regimes(np.array([2.0]), v=2.0, w=1.0), [0])

    def test_noise_equal_to_w_is_contested(self):
        self.assert_codes(classify_regimes(np.array([1.5]), v=3.0, w=1.5), [2])

    def test_trichotomy_is_exhaustive(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            params = random_instance(rng)
            sol = solve_nash(params)
            self.assert_codes(sol.codes, classify_regimes(params.noise, sol.v, sol.w))
            assert sol.regimes == tuple(REGIME_LABELS[c] for c in sol.codes)

    def test_matches_scalar_rule_with_ties(self):
        def scalar(n, v, w):
            if n >= v:
                return 0
            if n > w:
                return 1
            return 2

        rng = np.random.default_rng(89)
        for m in (1, 2, 7, 300):
            for _ in range(20):
                w, v = np.sort(rng.uniform(0.1, 10.0, 2))
                noise = rng.uniform(0.05, 12.0, m)
                # exact ties with both levels, and values one ulp either side
                ties = rng.choice(m, size=min(m, 6), replace=False)
                for i, idx in enumerate(ties):
                    level = (v, w)[i % 2]
                    noise[idx] = (level, np.nextafter(level, 0.0), np.nextafter(level, 20.0))[
                        (i // 2) % 3
                    ]
                codes = classify_regimes(noise, float(v), float(w))
                self.assert_codes(codes, [scalar(n, v, w) for n in noise])


class TestVerifyNash:
    def test_solver_output_verifies(self):
        rng = np.random.default_rng(89)
        for _ in range(15):
            params = random_instance(rng)
            report = verify_nash(params, solve_nash(params))
            assert report.ok, report
            assert report.tx_gap <= 1e-6 and report.jam_gap <= 1e-6
            assert not report.regime_failures

    def test_perturbed_jam_fails_on_jammer_side(self, symmetric2):
        sol = solve_nash(symmetric2)
        perturbed = NashSolution(
            tx=sol.tx,
            jam=alloc([0.6, 0.4], 1.0),
            v=sol.v,
            w=sol.w,
            u=sol.u,
            codes=sol.codes,
            value=sol.value,
        )
        report = verify_nash(symmetric2, perturbed)
        assert not report.ok
        assert report.jam_gap > 1e-6  # jammer could do strictly better

    def test_saddle_deviations_on_three_channel_example(self, asym3):
        sol = solve_nash(asym3)
        # all-power-on-channel-1: rate (1/2)ln(1 + 4/(1+1)) = (1/2)ln 3
        dev1 = utility(asym3, alloc([4.0, 0.0, 0.0], 4.0), sol.jam)
        assert dev1 == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert dev1 < sol.value
        # all-power-on-channel-2: rate (1/2)ln(1 + 4/3)
        dev2 = utility(asym3, alloc([0.0, 4.0, 0.0], 4.0), sol.jam)
        assert dev2 == pytest.approx(0.5 * math.log(7.0 / 3.0), abs=1e-12)
        assert dev2 < sol.value

    def test_report_is_deterministic(self, asym3):
        sol = solve_nash(asym3)
        a = verify_nash(asym3, sol, deviations=256, seed=11)
        b = verify_nash(asym3, sol, deviations=256, seed=11)
        assert a.tx_excess == b.tx_excess
        assert a.jam_shortfall == b.jam_shortfall

    def test_zero_deviations_is_vacuous(self, symmetric2):
        report = verify_nash(symmetric2, solve_nash(symmetric2), deviations=0)
        assert report.ok
        assert report.tx_excess == 0.0 and report.jam_shortfall == 0.0

    def test_negative_deviations_rejected(self, symmetric2):
        with pytest.raises(ValueError):
            verify_nash(symmetric2, solve_nash(symmetric2), deviations=-1)

    @pytest.mark.parametrize(
        "noise, j_budget",
        [([6.6, 5.0], 84147648.91615124),
         ([4.042252525625086, 7.344664502306642, 6.244378383041543, 7.364929700838244],
          3119539754.2107825)],
    )
    def test_large_budget_verifies(self, noise, j_budget):
        # the jammer's powers sum one ulp of j_budget off it, more than
        # EPS_KKT in absolute terms: the budget residual is judged relative
        params = make_params(noise, 2.0 * j_budget, j_budget)
        report = verify_nash(params, solve_nash(params), deviations=0)
        assert report.kkt.primal_gap > EPS_KKT
        assert report.kkt.primal_gap <= EPS_KKT * j_budget
        assert report.ok, report

    def test_tiny_tx_only_power_verifies(self):
        # channel 1 sits just below v, so its TxOnly power is about 5e-13
        params = make_params([1.0, 3.0 - 1e-12], 1.0, 1.0)
        sol = solve_nash(params)
        assert sol.regimes[1] is RegimeLabel.TX_ONLY
        assert 0.0 < sol.tx.powers[1] < 1e-12
        report = verify_nash(params, sol)
        assert report.ok, report.regime_failures

    def test_removed_tx_only_power_rejected(self, asym3):
        # TxOnly channel 1 loses its power to channel 0: its height misses v
        sol = solve_nash(asym3)
        moved = NashSolution(
            tx=alloc([4.0, 0.0, 0.0], 4.0),
            jam=sol.jam,
            v=sol.v,
            w=sol.w,
            u=sol.u,
            codes=sol.codes,
            value=sol.value,
        )
        failures = verify_nash(asym3, moved).regime_failures
        assert any(f.startswith("channel 1: ") for f in failures), failures

    @pytest.mark.parametrize(
        "noise, tx, jam, expected",
        [
            # channel 3 is quieter than the game the candidate was solved for
            ([1.0, 3.0, 6.0, 4.0], [2.0, 1.5, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0],
             ["channel 0: contested height 3.5 misses v",
              "channel 1: TxOnly but jammed",
              "channel 1: TxOnly height 5 misses v",
              "channel 2: Unused but carries power",
              "channel 3: labeled Unused, levels say TxOnly"]),
            ([1.0, 3.0, 6.0, 6.0], [2.5, 1.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5],
             ["channel 0: contested height 3.5 misses v",
              "channel 1: TxOnly but jammed",
              "channel 2: Unused but carries power",
              "channel 3: Unused but carries power"]),
            # channel 1 is mislabeled, jammed and off height: one message
            ([1.0, 1.5, 6.0, 6.0], [2.5, 1.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
             ["channel 0: contested height 4 misses v",
              "channel 1: labeled TxOnly, levels say Contested"]),
        ],
    )
    def test_regime_failures_text_and_order(self, noise, tx, jam, expected):
        # solved for noise [1, 3, 6, 6]: v = 4.5, w = 2, Contested, TxOnly,
        # Unused, Unused; a mislabeled channel gets no further message
        sol = solve_nash(make_params([1.0, 3.0, 6.0, 6.0], 4.0, 1.0))
        candidate = dataclasses.replace(sol, tx=alloc(tx, 4.0), jam=alloc(jam, 1.0))
        report = verify_nash(make_params(noise, 4.0, 1.0), candidate, deviations=0)
        assert list(report.regime_failures) == expected
        assert not report.ok

    @pytest.mark.parametrize("codes", [[2], [2, 1], [2, 1, 0, 0], [[2, 1, 0]], [2, 1, 3], [2, 1, -1]])
    def test_codes_other_than_m_regime_codes_rejected(self, asym3, codes):
        # a short tuple of labels used to verify without checking the rest
        sol = solve_nash(asym3)
        bad = dataclasses.replace(sol, codes=np.array(codes, dtype=np.int8))
        with pytest.raises(ValueError, match=r"codes of shape .* are not 3 regime codes"):
            verify_nash(asym3, bad, deviations=0)


class TestUniquenessProbe:
    def test_multistart_dynamics_agree(self, asym3):
        # ten random interior starts must land on the same allocation pair
        reference = solve_nash(asym3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start = (
                sample_simplex(rng, 1, 3, asym3.t_budget)[0],
                sample_simplex(rng, 1, 3, asym3.j_budget)[0],
            )
            trace = run_dynamics(asym3, damping=0.5, max_iters=10_000, start=start)
            assert trace.converged
            assert trace.final_distance <= 1e-6
            assert np.max(np.abs(trace.final_tx - reference.tx.powers)) <= 1e-6
            assert np.max(np.abs(trace.final_jam - reference.jam.powers)) <= 1e-6


class TestFeasibilityChecks:
    def test_solve_nash_checks_nothing(self, asym3, feasibility_checks):
        solve_nash(asym3)
        assert feasibility_checks == []

    def test_verify_nash_checks_six_times(self, asym3, feasibility_checks):
        # two entry checks, one per best response, two in saddle_probe
        verify_nash(asym3, solve_nash(asym3))
        assert sorted(feasibility_checks) == ["jam"] * 3 + ["tx"] * 3
