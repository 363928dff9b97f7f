import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame.waterfill import (
    EPS_SOLVE,
    _fill_rows,
    level_for_fills,
    water_fill,
)

from conftest import simplex_grid


def _bisect_level(floors, budget: float, max_iter: int = 200) -> float:
    """Bisection solver for the water level; cross-checks the closed form."""
    f = np.asarray(floors, dtype=float)
    budget = float(budget)
    if budget <= 0.0:
        return float(f.min())
    lo = float(f.min())
    hi = float(f.max()) + budget
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        spill = float(np.maximum(mid - f, 0.0).sum())
        if spill > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= EPS_SOLVE * max(1.0, hi):
            break
    return 0.5 * (lo + hi)

floors_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8
)
budget_strategy = st.floats(min_value=0.0, max_value=1000.0)


class TestWaterFill:
    def test_symmetric_split(self):
        ws = water_fill([1.0, 1.0], 1.0)
        assert ws.level == pytest.approx(1.5, abs=1e-15)
        np.testing.assert_allclose(ws.fills, [0.5, 0.5], atol=1e-15)
        assert ws.active.tolist() == [0, 1]
        assert not ws.active.flags.writeable

    def test_single_active_channel(self):
        ws = water_fill([1.0, 3.0], 1.0)
        assert ws.level == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_allclose(ws.fills, [1.0, 0.0], atol=1e-15)
        assert ws.active.tolist() == [0]

    def test_both_channels_active(self):
        # (L - 2) + (L - 5) = 10 gives L = 8.5
        ws = water_fill([2.0, 5.0], 10.0)
        assert ws.level == pytest.approx(8.5, abs=1e-12)
        np.testing.assert_allclose(ws.fills, [6.5, 3.5], atol=1e-12)

    def test_zero_budget(self):
        ws = water_fill([1.0, 1.0], 0.0)
        assert ws.level == 1.0
        np.testing.assert_array_equal(ws.fills, [0.0, 0.0])
        assert ws.active.size == 0

    def test_zero_budget_level_is_min_floor(self):
        ws = water_fill([4.0, 1.5, 3.0], 0.0)
        assert ws.level == 1.5

    def test_floor_tied_with_level_is_inactive(self):
        # budget 1 on floors [1, 2] puts the level exactly at the second floor
        ws = water_fill([1.0, 2.0], 1.0)
        assert ws.level == pytest.approx(2.0, abs=1e-15)
        assert ws.fills[1] == 0.0
        assert ws.active.tolist() == [0]

    @pytest.mark.parametrize(
        "floors, budget",
        [([1.0, 3.0], 1.0), ([2.0, 5.0], 10.0), ([1.0, 2.0, 4.0], 3.0), ([0.5, 0.5, 6.0], 2.0)],
    )
    def test_optimality_against_grid_oracle(self, floors, budget):
        # fills must maximize sum log(floor + x) over the simplex
        floors = np.array(floors)
        resolution = 801
        best_val, best_x = -math.inf, None
        for x in simplex_grid(budget, len(floors), resolution):
            val = float(np.sum(np.log(floors + x)))
            if val > best_val:
                best_val, best_x = val, x
        ws = water_fill(floors, budget)
        spacing = budget / (resolution - 1)
        assert np.max(np.abs(ws.fills - best_x)) <= len(floors) * spacing
        assert float(np.sum(np.log(floors + ws.fills))) >= best_val - 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            water_fill([], 1.0)
        with pytest.raises(ValueError):
            water_fill([1.0, -0.1], 1.0)
        with pytest.raises(ValueError):
            water_fill([1.0, math.nan], 1.0)
        with pytest.raises(ValueError):
            water_fill([1.0], -1.0)
        with pytest.raises(ValueError):
            water_fill([1.0], math.inf)

    @given(floors=floors_strategy, budget=budget_strategy)
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, floors, budget):
        ws = water_fill(floors, budget)
        f = np.array(floors)
        scale = max(1.0, budget, float(f.max()))
        # fills exhaust the budget
        assert abs(float(ws.fills.sum()) - budget) <= EPS_SOLVE * scale * len(floors)
        assert np.all(ws.fills >= 0.0)
        # fill > 0 exactly on channels below the level
        for k in range(len(floors)):
            if ws.fills[k] > 0.0:
                assert f[k] < ws.level
                assert k in ws.active
            else:
                assert f[k] >= ws.level - EPS_SOLVE * scale
                assert k not in ws.active

    @given(floors=floors_strategy, budget=budget_strategy)
    @settings(max_examples=150, deadline=None)
    def test_consistent_with_level_for_fills(self, floors, budget):
        ws = water_fill(floors, budget)
        check = level_for_fills(floors, ws.fills)
        assert check.consistent
        if ws.active.size:
            assert check.level == pytest.approx(ws.level, rel=1e-12)

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            floors = rng.uniform(0.0, 5.0, size=rng.integers(1, 6))
            b1 = float(rng.uniform(0.0, 3.0))
            b2 = b1 + float(rng.uniform(0.01, 3.0))
            ws1 = water_fill(floors, b1)
            ws2 = water_fill(floors, b2)
            assert ws2.level > ws1.level
            assert np.all(ws2.fills >= ws1.fills - 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        floors = rng.uniform(0.0, 4.0, size=5)
        budget = 2.7
        base = water_fill(floors, budget)
        for _ in range(10):
            perm = rng.permutation(5)
            ws = water_fill(floors[perm], budget)
            assert ws.level == pytest.approx(base.level, rel=1e-14)
            np.testing.assert_allclose(ws.fills, base.fills[perm], rtol=1e-14)

    def test_high_floor_channel_changes_nothing(self):
        floors = [1.0, 2.0]
        budget = 3.0
        base = water_fill(floors, budget)
        extended = water_fill(floors + [base.level + 0.5], budget)
        assert extended.level == pytest.approx(base.level, rel=1e-14)
        np.testing.assert_allclose(extended.fills[:2], base.fills, rtol=1e-14)
        assert extended.fills[2] == 0.0

    @given(floors=floors_strategy, budget=st.floats(min_value=1e-6, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_bisection(self, floors, budget):
        ws = water_fill(floors, budget)
        level = _bisect_level(floors, budget)
        assert ws.level == pytest.approx(level, rel=1e-9, abs=1e-9)


class TestFillRows:
    @pytest.mark.parametrize("budget", [0.0, 1e-300, 1e-15, 0.3, 1.0, 2.0, 7.5, 1e6])
    def test_each_row_is_water_fill_bit_for_bit(self, budget):
        rng = np.random.default_rng(41)
        rows = [
            [1.0, 1.0, 1.0],  # unit floors: 1e-300 is below their resolution
            [0.1, 0.1, 0.1],  # rounded mean of tied floors lands above them
            [2.0, 0.5, 2.0],  # ties among the higher floors
            [3.0, 1.0, 2.0],
            [0.0, 0.0, 4.0],
            [5.0, 5.0, 0.0],
            *np.round(rng.uniform(0.0, 6.0, size=(10, 3)), 1),
            *rng.uniform(0.0, 6.0, size=(10, 3)),
        ]
        floors = np.array(rows)
        levels, fills = _fill_rows(floors, budget)
        assert levels.shape == (len(rows),)
        assert fills.shape == floors.shape
        for row, level, row_fills in zip(floors, levels, fills):
            ws = water_fill(row, budget)
            assert level == ws.level
            assert row_fills.tobytes() == ws.fills.tobytes()

        # Tall blocks, like grid_minimax's on narrow grids: the same distinct
        # rows repeated to 64*m - 1 and 64*m rows.
        for m in range(1, 21):
            distinct = np.vstack([
                np.full((2, m), [[1.0], [0.1]]),  # all floors tied
                np.round(rng.uniform(0.0, 6.0, size=(6, m)), 1),
                rng.uniform(0.0, 6.0, size=(8, m)),
            ])
            expect = [water_fill(row, budget) for row in distinct]
            tall = 64 * m
            for n_rows in (tall - 1, tall):
                levels, fills = _fill_rows(np.resize(distinct, (n_rows, m)), budget)
                expect_levels = np.resize([ws.level for ws in expect], n_rows)
                expect_fills = np.resize([ws.fills for ws in expect], (n_rows, m))
                assert levels.tobytes() == expect_levels.tobytes()
                assert fills.tobytes() == expect_fills.tobytes()

    def test_zero_budget_pours_nothing_on_tied_floors(self):
        # (0.1 + 0.1 + 0.1) / 3 rounds one ulp above 0.1, which the level
        # test alone would accept as a level holding water
        levels, fills = _fill_rows(np.array([[0.1, 0.1, 0.1]]), 0.0)
        assert levels[0] == 0.1
        np.testing.assert_array_equal(fills, 0.0)
        assert water_fill([0.1, 0.1, 0.1], 0.0).active.size == 0


class TestLevelForFills:
    def test_single_active_channel(self):
        check = level_for_fills([1.0, 3.0], [1.0, 0.0])
        assert check.consistent
        assert check.level == pytest.approx(2.0)

    def test_unequal_heights_rejected(self):
        check = level_for_fills([1.0, 1.0], [0.5, 0.6])
        assert not check.consistent
        assert "unequal" in check.detail

    def test_two_active_channels(self):
        check = level_for_fills([2.0, 5.0], [6.5, 3.5])
        assert check.consistent
        assert check.level == pytest.approx(8.5)

    def test_idle_channel_below_level_rejected(self):
        # channel 1 idles at floor 1 while the water stands at 3
        check = level_for_fills([1.0, 1.0], [2.0, 0.0])
        assert not check.consistent
        assert "below" in check.detail

    def test_all_zero_fills(self):
        check = level_for_fills([1.0, 2.0], [0.0, 0.0])
        assert check.consistent
        assert check.level is None
        assert check.detail == "no active channel"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            level_for_fills([1.0, 2.0], [1.0])

    def test_negative_fill_rejected(self):
        with pytest.raises(ValueError):
            level_for_fills([1.0, 2.0], [-0.5, 0.5])
