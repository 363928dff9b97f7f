import math

import numpy as np
import pytest

from jamgame import (
    Allocation,
    GridSpec,
    grid_minimax,
    run_dynamics,
    saddle_probe,
    solve_nash,
)
from jamgame.oracle import EPS_DYN, MAX_GRID_POINTS, DynamicsTrace, _compositions

from conftest import alloc, make_params, random_instance


class TestGridSpec:
    def test_point_count_matches_enumeration(self):
        for resolution, m in [(5, 2), (7, 3), (4, 4), (11, 1)]:
            spec = GridSpec(resolution=resolution, m=m)
            points = list(_compositions(resolution - 1, m))
            assert spec.n_points == len(points)
            # lexicographic order, no duplicates
            assert points == sorted(set(points))

    def test_rejects_resolution_below_two(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=1, m=2)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="cap"):
            GridSpec(resolution=3000, m=4)

    def test_cap_error_reports_point_count(self):
        n_points = math.comb(3000 - 1 + 4 - 1, 4 - 1)
        assert n_points > MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"grid of {n_points} points exceeds the cap"):
            GridSpec(resolution=3000, m=4)


class TestGridMinimax:
    def test_single_channel_is_resolution_independent(self):
        params = make_params([2.0], 3.0, 1.5)
        expect = 0.5 * math.log(1.0 + 3.0 / (1.5 + 2.0))
        for resolution in (2, 17):
            result = grid_minimax(params, GridSpec(resolution=resolution, m=1))
            assert result.value == pytest.approx(expect, abs=1e-12)

    def test_symmetric_example_close_to_closed_form(self, symmetric2):
        result = grid_minimax(symmetric2, GridSpec(resolution=101, m=2))
        assert abs(result.value - math.log(5.0 / 3.0)) <= 1e-3

    def test_three_channel_example_close_to_closed_form(self, asym3):
        result = grid_minimax(asym3, GridSpec(resolution=51, m=3))
        assert abs(result.value - 0.5 * math.log(3.375)) <= 5e-3

    def test_grid_value_bounds_true_value_from_above(self):
        # the jammer grid is a restriction, so the grid value can only exceed
        # the continuum value, and by no more than the Lipschitz bound
        rng = np.random.default_rng(97)
        for _ in range(10):
            params = random_instance(rng)
            resolution = 101 if params.m == 2 else 51
            result = grid_minimax(params, GridSpec(resolution=resolution, m=params.m))
            sol = solve_nash(params)
            gap = result.value - sol.value
            assert gap >= -1e-12
            assert gap <= result.gap_bound

    def test_refinement_tightens_the_gap(self):
        # interior equilibrium, off-grid for every resolution used here;
        # nested grids (10 | 50 | 250 steps) make the gap non-increasing
        params = make_params([0.7, 0.9], 1.7, 1.3, alpha_t=1.1, alpha_j=0.9)
        sol = solve_nash(params)
        assert np.all(sol.jam.powers > 0.0)
        gaps = []
        distances = []
        for resolution in (11, 51, 251):
            result = grid_minimax(params, GridSpec(resolution=resolution, m=2))
            gaps.append(result.value - sol.value)
            distances.append(float(np.max(np.abs(result.jam - sol.jam.powers))))
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0
        assert distances[0] >= distances[1] >= distances[2]
        assert distances[2] <= 1.3 / 250.0 + 1e-12

    def test_tie_resolves_to_lexicographically_smallest(self, symmetric2):
        # resolution 2 leaves only the two corners, which tie by symmetry
        result = grid_minimax(symmetric2, GridSpec(resolution=2, m=2))
        np.testing.assert_array_equal(result.jam, [0.0, 1.0])

    def test_deterministic(self, symmetric2):
        spec = GridSpec(resolution=31, m=2)
        a = grid_minimax(symmetric2, spec)
        b = grid_minimax(symmetric2, spec)
        assert a.value == b.value
        np.testing.assert_array_equal(a.jam, b.jam)

    def test_dimension_mismatch_rejected(self, symmetric2):
        with pytest.raises(ValueError):
            grid_minimax(symmetric2, GridSpec(resolution=11, m=3))

    def test_reports_spacing_and_bound(self, symmetric2):
        result = grid_minimax(symmetric2, GridSpec(resolution=101, m=2))
        assert result.spacing == pytest.approx(0.01)
        assert result.lipschitz_bound == pytest.approx(2 * 1.0 / (2 * 1.0))
        assert result.gap_bound == pytest.approx(result.spacing * result.lipschitz_bound)
        assert result.n_points == 101


class TestSaddleProbe:
    def test_zero_trials_is_vacuous(self, symmetric2):
        sol = solve_nash(symmetric2)
        report = saddle_probe(symmetric2, sol.tx, sol.jam, trials=0, seed=5)
        assert report.ok
        assert report.trials == 0
        assert report.tx_violations == 0 and report.jam_violations == 0

    def test_equilibrium_survives_ten_thousand_trials(self, asym3):
        sol = solve_nash(asym3)
        report = saddle_probe(asym3, sol.tx, sol.jam, trials=10_000, seed=0)
        assert report.ok
        assert report.tx_violations == 0
        assert report.jam_violations == 0
        # worst margins stay on the correct side
        assert report.tx_excess <= EPS_DYN
        assert report.jam_shortfall <= EPS_DYN

    def test_corrupted_solution_is_caught(self, asym3):
        # swapping the two active tx entries is visibly suboptimal
        sol = solve_nash(asym3)
        corrupted = alloc([1.5, 2.5, 0.0], 4.0)
        report = saddle_probe(asym3, corrupted, sol.jam, trials=10_000, seed=0)
        assert not report.ok
        assert report.tx_violations > 0
        assert report.tx_excess > 1e-3

    def test_bit_identical_for_fixed_seed(self, asym3):
        sol = solve_nash(asym3)
        a = saddle_probe(asym3, sol.tx, sol.jam, trials=512, seed=21)
        b = saddle_probe(asym3, sol.tx, sol.jam, trials=512, seed=21)
        assert a == b

    def test_negative_trials_rejected(self, symmetric2):
        sol = solve_nash(symmetric2)
        with pytest.raises(ValueError):
            saddle_probe(symmetric2, sol.tx, sol.jam, trials=-1)


class TestRunDynamics:
    def test_fixed_point_start(self, symmetric2):
        sol = solve_nash(symmetric2)
        trace = run_dynamics(
            symmetric2, damping=0.5, start=(sol.tx.powers, sol.jam.powers)
        )
        assert trace.converged
        assert trace.n_iters <= 2
        assert trace.final_distance <= EPS_DYN

    def test_uniform_start_reaches_equilibrium(self, symmetric2):
        trace = run_dynamics(symmetric2, damping=0.5, max_iters=10_000)
        assert trace.converged
        last_tx, last_jam, _ = trace.iterates[-1]
        np.testing.assert_allclose(last_tx, [1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(last_jam, [0.5, 0.5], atol=1e-6)

    def test_iterates_are_feasible_and_bounded(self, asym3):
        trace = run_dynamics(asym3, damping=0.5, max_iters=50)
        assert isinstance(trace, DynamicsTrace)
        assert trace.n_iters <= 50
        for tx_powers, jam_powers, value in trace.iterates:
            assert np.all(tx_powers >= 0.0)
            assert np.all(jam_powers >= 0.0)
            assert float(tx_powers.sum()) == pytest.approx(4.0, rel=1e-9)
            assert float(jam_powers.sum()) == pytest.approx(1.0, rel=1e-9)
            assert math.isfinite(value)

    def test_undamped_trace_reports_outcome_without_crashing(self, symmetric2):
        # observed on this instance: undamped best response settles too; the
        # contract is only that the trace reports whatever happened
        start = (np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        trace = run_dynamics(symmetric2, damping=1.0, max_iters=200, start=start)
        assert isinstance(trace.converged, bool)
        assert math.isfinite(trace.final_distance)
        assert trace.n_iters <= 200
        assert trace.converged  # the observed outcome, frozen as a regression
        assert trace.final_distance <= 1e-6

    def test_alternating_variant_converges_here(self, symmetric2):
        start = (np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        trace = run_dynamics(
            symmetric2, damping=1.0, max_iters=200, start=start, alternating=True
        )
        assert trace.converged
        assert trace.final_distance <= 1e-6

    def test_deterministic_for_same_start(self, asym3):
        start = (np.array([1.0, 2.0, 1.0]), np.array([0.2, 0.3, 0.5]))
        a = run_dynamics(asym3, damping=0.5, max_iters=100, start=start)
        b = run_dynamics(asym3, damping=0.5, max_iters=100, start=start)
        assert a.final_distance == b.final_distance
        assert a.n_iters == b.n_iters
        np.testing.assert_array_equal(a.iterates[-1][0], b.iterates[-1][0])

    def test_max_iters_caps_trace_length(self, asym3):
        trace = run_dynamics(asym3, damping=0.01, max_iters=5)
        assert trace.n_iters == 5
        assert not trace.converged

    @pytest.mark.parametrize("damping", [0.0, -0.1, 1.5])
    def test_rejects_bad_damping(self, symmetric2, damping):
        with pytest.raises(ValueError):
            run_dynamics(symmetric2, damping=damping)

    def test_rejects_bad_start_shape(self, symmetric2):
        with pytest.raises(ValueError):
            run_dynamics(symmetric2, start=(np.zeros(3), np.zeros(2)))

    def test_rejects_nonpositive_max_iters(self, symmetric2):
        with pytest.raises(ValueError):
            run_dynamics(symmetric2, max_iters=0)


class TestFeasibilityCheckedOnce:
    def test_grid_minimax_checks_each_point_once(self, asym3, feasibility_checks):
        result = grid_minimax(asym3, GridSpec(resolution=21, m=3))
        assert len(feasibility_checks) == result.n_points
        assert set(feasibility_checks) == {"jam"}

    @pytest.mark.parametrize("alternating", [False, True])
    def test_run_dynamics_checks_at_most_two_per_step(
        self, asym3, feasibility_checks, alternating
    ):
        trace = run_dynamics(asym3, damping=0.5, max_iters=50, alternating=alternating)
        assert 0 < len(feasibility_checks) <= 2 * trace.n_iters
