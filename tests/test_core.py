import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame import (
    Allocation,
    GameParams,
    sample_simplex,
    utility,
    utility_batch,
)
from jamgame.core import BUDGET_RTOL, require_feasible

from conftest import alloc, make_params, rate


#: One valid game; each TestTypes case spoils some of its fields.
GAME = {"noise": [1.0], "alpha_t": 1.0, "alpha_j": 1.0, "t_budget": 1.0, "j_budget": 1.0}


class TestTypes:
    def test_channelset_rejects_empty_noise(self):
        with pytest.raises(ValueError, match="^noise must contain at least one channel$"):
            GameParams(**{**GAME, "noise": np.array([])})

    @pytest.mark.parametrize(
        "noise, message",
        [([1.0, bad], "every noise power must be finite and positive")
         for bad in (0.0, -1.0, math.nan, math.inf)]
        + [([[1.0], [2.0]], "noise must be a one-dimensional vector")],
        ids=["0.0", "-1.0", "nan", "inf", "2-D"],
    )
    def test_channelset_rejects_bad_noise(self, noise, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GameParams(**{**GAME, "noise": np.array(noise)})

    @pytest.mark.parametrize("field", ["alpha_t", "alpha_j"])
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
    def test_channelset_rejects_bad_attenuation(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive$"):
            GameParams(**{**GAME, field: bad})

    @pytest.mark.parametrize("field", ["t_budget", "j_budget"])
    def test_gameparams_requires_positive_budgets(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive$"):
            GameParams(**{**GAME, field: 0.0})

    def test_checks_run_in_field_order(self):
        # with every field from one on spoiled, the message names that field
        names = list(GAME)
        for i, name in enumerate(names):
            spoiled = {**GAME, **{later: 0.0 for later in names[i + 1 :]}}
            spoiled[name] = np.array([]) if name == "noise" else -1.0
            with pytest.raises(ValueError, match=f"^{name} must"):
                GameParams(**spoiled)

    def test_arrays_are_immutable(self):
        params = make_params([1.0, 2.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            params.noise[0] = 5.0
        a = alloc([0.5, 0.5], 1.0)
        with pytest.raises(ValueError):
            a.powers[0] = 2.0


class TestRequireFeasible:
    def test_feasible_passes(self):
        assert require_feasible(alloc([0.5, 0.5], 1.0), 1.0, 2, "tx") is None

    @pytest.mark.parametrize(
        "powers, m, problem",
        [
            ([1.0], 3, r"length 1 != expected 3"),
            ([math.nan, 1.0], 2, r"non-finite entries at \[0\]"),
            ([-0.1, 1.1], 2, r"negative entries at \[0\]"),
            ([0.4, 0.4], 2, r"power sum off budget by 0\.2"),
        ],
        ids=["length", "non-finite", "negative", "budget-sum"],
    )
    def test_problem_named(self, powers, m, problem):
        with pytest.raises(ValueError, match=rf"^tx allocation invalid: .*{problem}"):
            require_feasible(alloc(powers, 1.0), 1.0, m, "tx")

    @pytest.mark.parametrize(
        "powers, problems",
        [
            ([math.inf, -math.inf], "non-finite entries at [0, 1]; power sum off budget by inf"),
            ([1e308, 1e308], "power sum off budget by inf"),
        ],
        ids=["opposite-infinities", "sum-overflow"],
    )
    def test_sum_outside_the_float_range_warns_nothing(self, powers, problems):
        # the suite turns warnings into errors: the sum's NaN or inf is quiet
        with pytest.raises(ValueError) as exc:
            require_feasible(alloc(powers, 1.0), 1.0, 2, "tx")
        assert str(exc.value) == f"tx allocation invalid: {problems}"

    def test_every_problem_named_in_one_message(self):
        with pytest.raises(ValueError) as exc:
            require_feasible(alloc([-1.0, math.inf, 0.5], 1.0), 1.0, 2, "jam")
        assert str(exc.value) == (
            "jam allocation invalid: length 3 != expected 2; "
            "non-finite entries at [1]; negative entries at [0]; "
            "power sum off budget by inf"
        )

    def test_declared_budget_mismatch(self):
        with pytest.raises(ValueError, match="jam allocation budget 2 does not match 1$"):
            require_feasible(alloc([0.5, 0.5], 2.0), 1.0, 2, "jam")

    def test_budget_tolerance_is_relative(self):
        # off by less than BUDGET_RTOL relative to the budget: still ok
        budget = 1e6
        assert 1e-4 <= BUDGET_RTOL * budget
        require_feasible(alloc([budget / 2, budget / 2 + 1e-4], budget), budget, 2, "tx")
        # the same absolute gap at a unit budget is out of tolerance
        with pytest.raises(ValueError, match="power sum off budget by 0.0001"):
            require_feasible(alloc([0.5, 0.5 + 1e-4], 1.0), 1.0, 2, "tx")


class TestUtility:
    def test_zero_tx_gives_zero_rate(self):
        # zero transmit power: rate is 0 no matter the jamming
        params = make_params([1.0], 1.0, 1.0)
        for j in (0.0, 0.5, 1.0):
            assert utility_batch(params, np.array([0.0]), np.array([j]))[0] == 0.0

    def test_single_channel_no_jamming(self):
        params = make_params([1.0], 1.0, 1.0)
        # jam=[0] is not budget-feasible for J=1, so evaluate the raw payoff
        val = utility_batch(params, np.array([1.0]), np.array([0.0]))[0]
        assert val == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_symmetric_two_channel_value(self, symmetric2):
        tx = alloc([1.0, 1.0], 2.0)
        jam = alloc([0.5, 0.5], 1.0)
        val = utility(symmetric2, tx, jam)
        assert val == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
        # independent scalar recomputation, term by term
        assert val == pytest.approx(rate([1, 1], 1, 1, [1, 1], [0.5, 0.5]), abs=1e-12)

    def test_rejects_length_mismatch(self, symmetric2):
        with pytest.raises(ValueError):
            utility(symmetric2, alloc([2.0], 2.0), alloc([0.5, 0.5], 1.0))

    def test_rejects_budget_violation(self, symmetric2):
        with pytest.raises(ValueError):
            utility(symmetric2, alloc([1.0, 0.5], 2.0), alloc([0.5, 0.5], 1.0))

    def test_rejects_wrong_declared_budget(self, symmetric2):
        with pytest.raises(ValueError):
            utility(symmetric2, alloc([0.5, 0.5], 1.0), alloc([0.5, 0.5], 1.0))

    def test_rejects_negative_power(self, symmetric2):
        with pytest.raises(ValueError):
            utility(symmetric2, alloc([2.5, -0.5], 2.0), alloc([0.5, 0.5], 1.0))

    def test_additive_over_channels(self, asym3):
        tx = alloc([2.5, 1.5, 0.0], 4.0)
        jam = alloc([1.0, 0.0, 0.0], 1.0)
        total = utility(asym3, tx, jam)
        parts = 0.0
        for k in range(3):
            single = make_params([asym3.noise[k]], 1.0, 1.0)
            parts += utility_batch(
                single, np.array([tx.powers[k]]), np.array([jam.powers[k]])
            )[0]
        assert total == pytest.approx(parts, abs=1e-12)

    def test_monotone_in_each_coordinate(self):
        # payoff rises with tx power and falls with jam power, entrywise
        params = make_params([1.0, 2.0], 3.0, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            tx = rng.uniform(0.0, 3.0, size=2)
            jam = rng.uniform(0.0, 2.0, size=2)
            base = utility_batch(params, tx, jam)[0]
            bumped_tx = tx.copy()
            bumped_tx[0] += 0.1
            assert utility_batch(params, bumped_tx, jam)[0] > base
            bumped_jam = jam.copy()
            bumped_jam[1] += 0.1
            assert utility_batch(params, tx, bumped_jam)[0] < base

    def test_scale_invariance_of_attenuations(self, symmetric2):
        tx = alloc([1.2, 0.8], 2.0)
        jam = alloc([0.3, 0.7], 1.0)
        base = utility(symmetric2, tx, jam)
        for c in (0.5, 2.0, 7.0):
            scaled_t = make_params([1.0, 1.0], 2.0 / c, 1.0, alpha_t=c)
            val = utility(scaled_t, alloc(tx.powers / c, 2.0 / c), jam)
            assert val == pytest.approx(base, rel=1e-12)
            scaled_j = make_params([1.0, 1.0], 2.0, 1.0 / c, alpha_j=c)
            val = utility(scaled_j, tx, alloc(jam.powers / c, 1.0 / c))
            assert val == pytest.approx(base, rel=1e-12)

    def test_concave_in_tx_convex_in_jam(self):
        params = make_params([1.0, 3.0], 4.0, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(100):
            tx1 = sample_simplex(rng, 1, 2, 4.0)[0]
            tx2 = sample_simplex(rng, 1, 2, 4.0)[0]
            jam1 = sample_simplex(rng, 1, 2, 2.0)[0]
            jam2 = sample_simplex(rng, 1, 2, 2.0)[0]
            mid_tx = utility_batch(params, 0.5 * (tx1 + tx2), jam1)[0]
            avg_tx = 0.5 * (
                utility_batch(params, tx1, jam1)[0] + utility_batch(params, tx2, jam1)[0]
            )
            assert mid_tx >= avg_tx - 1e-12
            mid_jam = utility_batch(params, tx1, 0.5 * (jam1 + jam2))[0]
            avg_jam = 0.5 * (
                utility_batch(params, tx1, jam1)[0] + utility_batch(params, tx1, jam2)[0]
            )
            assert mid_jam <= avg_jam + 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 130, 4096])
    def test_utility_is_the_batch_formula_exactly(self, m):
        # utility only adds the two checks: same bits as the unchecked formula
        rng = np.random.default_rng(m)
        for _ in range(20):
            params = make_params(
                rng.uniform(0.5, 8.0, size=m),
                float(rng.uniform(0.5, 5.0)),
                float(rng.uniform(0.5, 5.0)),
                alpha_t=float(rng.uniform(0.5, 2.0)),
                alpha_j=float(rng.uniform(0.5, 2.0)),
            )
            tx = alloc(sample_simplex(rng, 1, m, params.t_budget)[0], params.t_budget)
            jam = alloc(sample_simplex(rng, 1, m, params.j_budget)[0], params.j_budget)
            batch = utility_batch(params, tx.powers, jam.powers)[0]
            assert utility(params, tx, jam) == batch

    def test_batch_matches_scalar(self, asym3):
        rng = np.random.default_rng(5)
        tx_batch = sample_simplex(rng, 16, 3, 4.0)
        jam_batch = sample_simplex(rng, 16, 3, 1.0)
        vals = utility_batch(asym3, tx_batch, jam_batch)
        for i in range(16):
            expect = rate([1, 3, 6], 1, 1, tx_batch[i], jam_batch[i])
            assert vals[i] == pytest.approx(expect, abs=1e-12)


class TestSampleSimplex:
    @given(
        n=st.integers(min_value=1, max_value=64),
        m=st.integers(min_value=1, max_value=6),
        budget=st.floats(min_value=1e-3, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_samples_are_feasible(self, n, m, budget, seed):
        pts = sample_simplex(np.random.default_rng(seed), n, m, budget)
        assert pts.shape == (n, m)
        assert np.all(pts >= 0.0)
        np.testing.assert_allclose(pts.sum(axis=1), budget, rtol=1e-9)

    def test_deterministic_for_fixed_seed(self):
        a = sample_simplex(np.random.default_rng(42), 8, 3, 2.0)
        b = sample_simplex(np.random.default_rng(42), 8, 3, 2.0)
        np.testing.assert_array_equal(a, b)
