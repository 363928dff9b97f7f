import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame import (
    Allocation,
    GridSpec,
    grid_minimax,
    run_dynamics,
    saddle_probe,
    sample_simplex,
    solve_nash,
    tx_best_response,
)
from jamgame import equilibrium, oracle
from jamgame.core import BUDGET_RTOL, utility_batch
from jamgame.oracle import (
    _CHUNK_ENTRIES,
    _PRUNE_RTOL,
    EPS_DYN,
    MAX_GRID_POINTS,
    DynamicsTrace,
    _bound_term,
    _completion_bound,
    _grid_seed,
    _min_plus,
    _walk,
)
from jamgame.waterfill import _fill_rows

from conftest import alloc, make_params, random_instance, simplex_grid


def block_rows(m):
    """Most children, or grid points, in one _walk chunk on an m-channel grid."""
    return max(1, _CHUNK_ENTRIES // m)


def combinations_blocks(steps, m, rows=4096):
    """The grid enumerated through itertools.combinations, in blocks of rows.

    Stars and bars: each choice of m - 1 bar positions among steps + m - 1
    slots is one point, and the counts between consecutive bars are its
    coordinates; combinations come in lexicographic order, and so do the
    points.  One Python tuple per point, sharing no code with _walk.
    """
    slots = steps + m - 1
    bars = itertools.combinations(range(slots), m - 1)
    while True:
        chunk = list(itertools.islice(bars, rows))
        if not chunk:
            return
        cuts = np.array(chunk, dtype=np.int64).reshape(len(chunk), m - 1)
        yield np.diff(cuts, axis=1, prepend=-1, append=slots) - 1


def zero_term(k, i):
    return np.zeros(np.broadcast(k, i).shape)


def unpruned_walk(steps, m):
    """Every chunk _walk yields when its bound rules nothing out."""
    return _walk(steps, m, zero_term, zero_term, lambda: math.inf)


def exhaustive_grid_minimax(params, blocks, steps):
    """grid_minimax by scoring every point of ``blocks`` (lexicographic order).

    Whole blocks go through _fill_rows and utility_batch, whose rows do not
    depend on their block, and the first least score wins.  The water level
    does not depend on the order of the channels, so the floors go in noise
    order, which the stable sort takes in near-linear time when few channels
    are jammed; the fills are then max(level - floor, 0), as in _fill_rows.
    """
    spacing = params.j_budget / steps
    order = np.argsort(params.noise)
    best = (math.inf, None, None)
    for block in blocks:
        jam = block * spacing
        floors = params.alpha_j * jam + params.noise
        level, _ = _fill_rows(floors[:, order], params.alpha_t * params.t_budget)
        tx = np.maximum(level[:, np.newaxis] - floors, 0.0) / params.alpha_t
        inner = utility_batch(params, tx, jam)
        k = int(np.argmin(inner))
        if inner[k] < best[0]:
            best = (float(inner[k]), jam[k], tx[k])
    return best


def lexicographic(points):
    return points[np.lexsort(points.T[::-1])]


def per_point_grid_minimax(params, resolution):
    """grid_minimax one grid point at a time through the public path.

    Returns (value, jam, tx, index of the winning point, number of points).
    """
    best = (math.inf, None, None, -1)
    n_points = 0
    for index, jam in enumerate(simplex_grid(params.j_budget, params.m, resolution)):
        tx, _ = tx_best_response(params, alloc(jam, params.j_budget))
        inner = float(utility_batch(params, tx.powers, jam)[0])
        n_points += 1
        if inner < best[0]:
            best = (inner, jam, tx.powers, index)
    return (*best, n_points)


#: Log-uniform magnitudes for noise, budgets and gains.
extreme = st.floats(min_value=-100.0, max_value=100.0).map(lambda e: 10.0**e)

#: Largest resolution per channel count that the per-point reference scans quickly.
REFERENCE_RESOLUTION = {1: 300, 2: 300, 3: 40, 4: 14, 5: 8}


@st.composite
def grid_games(draw):
    """(params, resolution): a random, a tied, or an extreme-magnitude game."""
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "tied", "extreme"]))
    if kind == "random":
        value = st.floats(min_value=0.2, max_value=8.0)
        gain = st.floats(min_value=0.4, max_value=2.5)
    elif kind == "tied":
        # few distinct values, so many grid points tie
        value = st.integers(1, 3).map(float)
        gain = st.just(1.0)
    else:
        value = gain = extreme
    noise = draw(st.lists(value, min_size=m, max_size=m))
    params = make_params(noise, draw(value), draw(value), draw(gain), draw(gain))
    return params, draw(st.integers(2, REFERENCE_RESOLUTION[m]))


class TestGridSpec:
    def test_point_count_matches_enumeration(self):
        # (101, 3) and (5000, 2) span more than one block
        for resolution, m in [(5, 2), (7, 3), (4, 4), (11, 1), (2, 5), (101, 3), (5000, 2)]:
            steps = resolution - 1
            spec = GridSpec(resolution=resolution, m=m)
            blocks = list(unpruned_walk(steps, m))
            assert all(0 < len(block) <= block_rows(m) for block in blocks)
            points = np.vstack(blocks)
            assert spec.n_points == len(points)
            # no duplicates: sorted, the same sequence as the independent
            # enumeration (unit spacing keeps the points integers)
            reference = np.array(list(simplex_grid(float(steps), m, resolution)))
            np.testing.assert_array_equal(lexicographic(points), reference)

    @pytest.mark.parametrize("resolution, m", [(2, 1), (9, 2), (41, 3), (13, 4)])
    def test_grid_points_feasible_by_construction(self, resolution, m):
        # the claim that lets grid_minimax skip require_feasible per point
        rng = np.random.default_rng(resolution * 10 + m)
        for j_budget in rng.uniform(0.01, 100.0, size=5):
            spacing = j_budget / (resolution - 1)
            for block in unpruned_walk(resolution - 1, m):
                jam = block * spacing
                assert np.all(jam >= 0.0)
                sums = jam.sum(axis=1)
                assert np.all(np.abs(sums - j_budget) <= BUDGET_RTOL * j_budget)

    def test_rejects_resolution_below_two(self):
        with pytest.raises(ValueError, match="^resolution must be at least 2$"):
            GridSpec(resolution=1, m=2)
        # the channel count has the same kind of lower bound
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            GridSpec(resolution=3, m=0)

    @pytest.mark.parametrize("resolution", [2**63 + 1, 10**20])
    def test_rejects_steps_beyond_int64(self, resolution):
        # one point at m = 1, so the point cap alone would let it through
        with pytest.raises(ValueError, match="64-bit"):
            GridSpec(resolution=resolution, m=1)

    def test_accepts_steps_at_int64_max(self):
        assert GridSpec(resolution=2**63, m=1).n_points == 1

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="cap"):
            GridSpec(resolution=3000, m=4)

    def test_cap_error_reports_point_count(self):
        n_points = math.comb(3000 - 1 + 4 - 1, 4 - 1)
        assert n_points > MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"grid of {n_points} points exceeds the cap"):
            GridSpec(resolution=3000, m=4)


class TestGridBlocks:
    """_walk with nothing ruled out: every grid point once, in bounded chunks."""

    @staticmethod
    def assert_same_blocks(steps, m):
        blocks = list(unpruned_walk(steps, m))
        assert all(0 < len(block) <= block_rows(m) for block in blocks)
        assert all(block.dtype == np.int64 and block.shape[1] == m for block in blocks)
        # the same points as the reference, each once, so grid_minimax can
        # only skip a point the bound rules out
        points = lexicographic(np.vstack(blocks))
        np.testing.assert_array_equal(points, np.vstack(list(combinations_blocks(steps, m))))

    @pytest.mark.parametrize(
        "steps, m",
        [
            (0, 1), (7, 1), (0, 4), (1, 2), (1, 7), (1023, 2), (3000, 2),
            # chunk edges cut the first coordinate's subtrees at m = 3
            (1500, 3),
            # the root's children over several chunks at m = 2, ending on a
            # full and a partial chunk
            (2 * block_rows(2) - 1, 2), (3 * block_rows(2), 2),
            # the first coordinate's subtree (C(steps + 2, 2) points at m = 4)
            # alone spans several chunks
            (100, 4),
            (200, 3), (40, 4), (18, 5), (12, 6),
            # wide rows: few children per chunk, a deep stack
            (1, 40), (2, 20), (3, 16), (2, 40),
        ],
    )
    def test_matches_combinations(self, steps, m):
        self.assert_same_blocks(steps, m)

    def test_matches_combinations_on_random_shapes(self):
        rng = np.random.default_rng(2024)
        max_steps = {1: 50, 2: 3000, 3: 150, 4: 40, 5: 20, 6: 12}
        for _ in range(60):
            m = int(rng.integers(1, 7))
            self.assert_same_blocks(int(rng.integers(0, max_steps[m] + 1)), m)

    @pytest.mark.parametrize("steps, m", [(10**6, 2), (4000, 3), (100, 5)])
    def test_memory_flat(self, steps, m):
        # O(chunk) when nothing is ruled out: a whole-range array at
        # (10**6, 2) would take 8 MB or more
        tracemalloc.start()
        try:
            n_points = sum(len(block) for block in unpruned_walk(steps, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_points == math.comb(steps + m - 1, m - 1)
        assert peak < 2_000_000


class TestGridMinimax:
    def test_single_channel_is_resolution_independent(self):
        params = make_params([2.0], 3.0, 1.5)
        expect = 0.5 * math.log(1.0 + 3.0 / (1.5 + 2.0))
        for resolution in (2, 17):
            result = grid_minimax(params, GridSpec(resolution=resolution, m=1))
            assert result.value == pytest.approx(expect, abs=1e-12)

    def test_grid_without_a_comparable_score_raises(self, asym3, monkeypatch):
        # a NaN score adds nothing, so an all-NaN grid has no point to report
        monkeypatch.setattr(oracle, "utility_batch", lambda p, tx, jam: np.full(len(jam), np.nan))
        with pytest.raises(ValueError, match="^no grid point has a comparable score$"):
            grid_minimax(asym3, GridSpec(resolution=5, m=3))

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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bit_identical_to_per_point_reference(self, m):
        rng = np.random.default_rng(31 + m)
        for _ in range(6):
            params = make_params(
                noise=rng.uniform(0.3, 8.0, size=m),
                t_budget=float(rng.uniform(0.2, 6.0)),
                j_budget=float(rng.uniform(0.2, 6.0)),
                alpha_t=float(rng.uniform(0.4, 2.5)),
                alpha_j=float(rng.uniform(0.4, 2.5)),
            )
            resolution = int(rng.integers(2, {1: 300, 2: 300, 3: 40, 4: 14}[m]))
            self._assert_matches_reference(params, resolution)

    @pytest.mark.parametrize(
        "noise, t_budget, j_budget, resolution",
        [([2.0, 2.0], 2.0, 2.0, 3), ([1.0, 1.0, 1.0], 3.0, 3.0, 4),
         ([1.0] * 4, 1.0, 2.0, 5), ([3.0, 3.0, 3.0], 1.0, 1.0, 2),
         ([1.0, 1.0], 2.0, 1.0, 1024),
         # the two tied minimizers (rows - 1, rows) and (rows, rows - 1), in
         # grid units, sit in different chunks; the lexicographically
         # smaller one must win
         ([1.0, 1.0], 2.0, 1.0, 2 * block_rows(2))],
    )
    def test_equal_noise_ties_match_reference(self, noise, t_budget, j_budget, resolution):
        self._assert_matches_reference(make_params(noise, t_budget, j_budget), resolution)

    def test_minimum_beyond_first_block_matches_reference(self):
        # the jammer piles onto the quiet first channel, so the grid optimum
        # sits late in lexicographic order, past the first chunk
        params = make_params([0.5, 3.0, 3.0], 2.0, 3.0)
        resolution = 81
        assert GridSpec(resolution=resolution, m=3).n_points > block_rows(3)
        index = self._assert_matches_reference(params, resolution)
        assert index >= block_rows(3)

    @staticmethod
    def _assert_matches_reference(params, resolution) -> int:
        value, jam, tx, index, n_points = per_point_grid_minimax(params, resolution)
        result = grid_minimax(params, GridSpec(resolution=resolution, m=params.m))
        assert result.value == value
        assert result.jam.tobytes() == jam.tobytes()
        assert result.tx.tobytes() == tx.tobytes()
        assert result.n_points == n_points
        return index

    @given(game=grid_games(), chunk_entries=st.sampled_from([None, 1, 5, 64]))
    @settings(max_examples=300, deadline=None)
    def test_pruned_scan_matches_per_point_reference(self, game, chunk_entries):
        params, resolution = game
        with pytest.MonkeyPatch.context() as patch:
            if chunk_entries is not None:
                # many small chunks, so the cut moves from chunk to chunk
                patch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
            self._assert_matches_reference(params, resolution)

    def test_one_channel_at_int64_resolution(self):
        # the seed must not round the one point through float
        params = make_params([2.0], 3.0, 1.5)
        index = self._assert_matches_reference(params, 2**63)
        assert index == 0

    def test_dimension_mismatch_rejected(self, symmetric2):
        with pytest.raises(ValueError):
            grid_minimax(symmetric2, GridSpec(resolution=11, m=3))

    def test_reports_spacing_and_bound(self, symmetric2):
        result = grid_minimax(symmetric2, GridSpec(resolution=101, m=2))
        assert result.spacing == pytest.approx(0.01)
        assert result.lipschitz_bound == pytest.approx(2 * 1.0 / (2 * 1.0))
        assert result.gap_bound == pytest.approx(result.spacing * result.lipschitz_bound)
        assert result.n_points == 101


class TestGridPrune:
    """The payoff bound cuts off grid points; it must never change the answer."""

    CASES = [
        # the optimum lies past the first block
        (([0.5, 3.0, 3.0], 2.0, 3.0), 81),
        (([1.0, 3.0, 6.0], 4.0, 1.0, 1.3, 0.7), 41),
        # equal noise: many tied points
        (([1.0] * 4, 1.0, 2.0), 9),
        (([0.7, 0.9], 1.7, 1.3, 1.1, 0.9), 300),
    ]

    def assert_cases_match_reference(self):
        for args, resolution in self.CASES:
            TestGridMinimax._assert_matches_reference(make_params(*args), resolution)

    @pytest.mark.parametrize("vertex", [0, -1])
    def test_vertex_seed_changes_nothing(self, monkeypatch, vertex):
        def vertex_seed(params, steps):
            point = np.zeros(params.m, dtype=np.int64)
            point[vertex] = steps
            return point

        monkeypatch.setattr(oracle, "_grid_seed", vertex_seed)
        self.assert_cases_match_reference()

    def test_zero_bound_allocation_changes_nothing(self, monkeypatch):
        # no transmit power makes every g_k zero, so no prefix is cut off
        def zero_terms(params, tx, spacing):
            return _bound_term(params, np.zeros_like(tx), spacing)

        monkeypatch.setattr(oracle, "_bound_term", zero_terms)
        self.assert_cases_match_reference()

    def test_seed_pour_beyond_the_budget_is_scaled_back(self):
        # t_budget is below the float resolution of every floor, so every
        # grid point scores 0 but the seed (1, 1, 1): its floors differ by a
        # few ulps, and their rounded mean pours 512 to 1024 per channel.
        # Unscaled, that pour would bound the first point, the winner, whose
        # channel 0 is unjammed, far above 0 and skip it.
        params = make_params([941.0, 271.0, 897.0], 1e-30, 1.2e19)
        index = TestGridMinimax._assert_matches_reference(params, 4)
        assert index == 0

    def test_scores_under_one_percent_of_points(self, monkeypatch):
        rows = []

        def counting(floors, budget):
            rows.append(len(floors))
            return _fill_rows(floors, budget)

        monkeypatch.setattr(oracle, "_fill_rows", counting)
        spec = GridSpec(resolution=201, m=3)
        rng = np.random.default_rng(12)
        for _ in range(10):
            rows.clear()
            grid_minimax(random_instance(rng, 3), spec)
            assert 0 < sum(rows) < 0.01 * spec.n_points

    @pytest.mark.parametrize("m, max_steps", [(1, 40), (2, 40), (3, 40), (5, 12), (16, 3)])
    def test_bound_is_the_payoff_formula(self, m, max_steps):
        rng = np.random.default_rng(40 + m)
        for _ in range(5):
            params = random_instance(rng, m)
            steps = int(rng.integers(1, max_steps + 1))
            tx = sample_simplex(rng, 1, m, params.t_budget)[0]
            # channels without transmit power add nothing
            tx[rng.random(m) < 0.3] = 0.0
            spacing = params.j_budget / steps
            term = _bound_term(params, tx, spacing)
            for block in combinations_blocks(steps, m):
                np.testing.assert_allclose(
                    sum(term(k, block[:, k]) for k in range(m)),
                    utility_batch(params, tx, block * spacing),
                    rtol=1e-12,
                    atol=0.0,
                )

    def test_seed_rounds_the_equilibrium_jammer_by_largest_remainder(self):
        # the jammer pours 4 over noise [1, 3] to level 4: shares 3/4 and 1/4,
        # so 7.5 and 2.5 of 10 steps; the tied remainder goes to channel 0
        params = make_params([1.0, 3.0], 1.0, 4.0)
        np.testing.assert_array_equal(_grid_seed(params, 10), [8, 2])

    @pytest.mark.parametrize(
        "noise, j_budget, alpha_j",
        [
            ([1.0, 2.0, 3.0, 4.0], 1.0, 1.0),
            # no water held: the jammer budget is below the noise resolution
            ([1e100, 1e100, 1e100], 1e-100, 1.0),
            # alpha_j * j_budget overflows
            ([1.0, 2.0], 1e200, 1e200),
        ],
    )
    @pytest.mark.parametrize("steps", [1, 2, 7, 200, 10**6])
    def test_seed_is_a_grid_point(self, noise, j_budget, alpha_j, steps):
        seed = _grid_seed(make_params(noise, 1.0, j_budget, alpha_j=alpha_j), steps)
        assert seed.dtype == np.int64
        assert seed.shape == (len(noise),)
        assert np.all(seed >= 0)
        assert int(seed.sum()) == steps

    @given(
        game=grid_games(),
        steps=st.integers(1, 8),
        silent=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_completion_bound_is_the_least_completion(self, game, steps, silent):
        # D_j(r) against a brute-force min-plus over every completion
        params, _ = game
        m = params.m
        tx = np.full(m, params.t_budget / m)
        tx[np.array(silent[:m])] = 0.0
        term = _bound_term(params, tx, params.j_budget / steps)
        rest = _completion_bound(term, steps, m)
        table = [term(k, np.arange(steps + 1)).tolist() for k in range(m)]
        for j in range(1, m + 1):
            for r in range(steps + 1 if j < m else 1):
                least = math.inf
                for head in itertools.product(range(r + 1), repeat=max(0, m - 1 - j)):
                    if sum(head) <= r:
                        point = (*head, r - sum(head))[: m - j]
                        least = min(least, sum(table[j + n][x] for n, x in enumerate(point)))
                got = float(rest(np.array([j]), np.array([r]))[0])
                assert got == least or abs(got - least) <= _PRUNE_RTOL * max(1.0, abs(least))

    def test_min_plus_of_overflowed_and_nan_terms(self):
        # a term that overflowed at small i is +inf there; NaN cuts nothing
        head = np.array([[np.inf, np.inf, 1.0, 0.5], [np.nan, 1.0, 0.5, 0.25]])
        tail = np.array([[np.inf, 2.0, 1.0, 0.8], [3.0, 2.0, 1.5, 1.25]])
        low = _min_plus(head, tail)
        brute = [min(head[0, a] + tail[0, r - a] for a in range(r + 1)) for r in range(4)]
        np.testing.assert_array_equal(low[0], brute)
        assert np.isnan(low[1]).all()


class TestWideGrid:
    """Memory O(chunk + m * steps), whatever the bound rules out."""

    @staticmethod
    def traced(params, spec):
        tracemalloc.start()
        try:
            result = grid_minimax(params, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    @staticmethod
    def vertices(m, rows=16):
        # small blocks of wide rows stay in cache
        for start in range(0, m, rows):
            block = np.zeros((min(rows, m - start), m), dtype=np.int64)
            block[np.arange(len(block)), m - 1 - start - np.arange(len(block))] = 1
            yield block

    @staticmethod
    def assert_same(result, value, jam, tx):
        assert result.value == value
        assert result.jam.tobytes() == jam.tobytes()
        assert result.tx.tobytes() == tx.tobytes()

    def test_resolution_two_on_4096_channels(self):
        # far below one 512-row block of 4096 channels (16 MB per array)
        rng = np.random.default_rng(4096)
        params = make_params(rng.uniform(0.5, 8.0, 4096), 4096.0, 1.0)
        result, peak = self.traced(params, GridSpec(resolution=2, m=4096))
        assert peak < 10_000_000
        # the grid is the 4096 vertices, e_4095 first in lexicographic order
        self.assert_same(result, *exhaustive_grid_minimax(params, self.vertices(4096), 1))
        assert result.n_points == 4096

    def test_million_steps_on_two_channels(self):
        params = make_params([1.0, 3.0], 2.0, 3.0, alpha_t=1.2, alpha_j=0.8)
        result, peak = self.traced(params, GridSpec(resolution=10**6 + 1, m=2))
        assert peak < 2_000_000
        assert result.n_points == 10**6 + 1

    @pytest.mark.parametrize("resolution, m", [(10**5 + 1, 2), (301, 3)])
    def test_no_bound_scores_every_point_in_chunks(self, monkeypatch, resolution, m):
        # a transmitter allocation of zeros bounds nothing, and a NaN seed
        # score leaves no cut until the first chunk is scored: every grid
        # point is then scored, a chunk at a time
        params = random_instance(np.random.default_rng(resolution), m)
        spec = GridSpec(resolution=resolution, m=m)
        expect = grid_minimax(params, spec)
        scored = []

        def nan_seed(params, tx, jam):
            inner = utility_batch(params, tx, jam)
            scored.append(len(inner))
            return inner if len(scored) > 1 else np.full_like(inner, np.nan)

        monkeypatch.setattr(oracle, "utility_batch", nan_seed)
        monkeypatch.setattr(
            oracle, "_bound_term", lambda params, tx, spacing: zero_term
        )
        result, peak = self.traced(params, spec)
        assert peak < 2_000_000
        assert sum(scored) == 1 + spec.n_points
        assert max(scored) <= block_rows(m)
        self.assert_same(result, expect.value, expect.jam, expect.tx)

    def test_loose_bound_game_scores_no_more_points(self, monkeypatch):
        # grid-oracle seed 1303: the bound of this game is loose, and the
        # block enumeration scored 1510 of its 12 341 points
        params = make_params(
            [5.819804621158037, 3.8801810638609613, 1.9690345469675015, 4.425499756903905],
            0.6008941005765328, 4.8726681332942166,
            alpha_t=1.746313644075596, alpha_j=1.937273903770715,
        )
        rows = []

        def counting(floors, budget):
            rows.append(len(floors))
            return _fill_rows(floors, budget)

        monkeypatch.setattr(oracle, "_fill_rows", counting)
        result = grid_minimax(params, GridSpec(resolution=41, m=4))
        # the seed's fill and score, then the points the bound keeps
        assert sum(rows) - 2 <= 1510
        self.assert_same(result, *exhaustive_grid_minimax(params, combinations_blocks(40, 4), 40))


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

    @pytest.mark.parametrize("m", [2, 5, 8, 1000])
    @pytest.mark.parametrize("chunk_entries", [1, 7 * 1000, 2**16])
    def test_chunked_draws_match_one_draw(self, monkeypatch, m, chunk_entries):
        # one generator, all transmitter rows before all jammer rows: drawn in
        # chunks of any size, the rows and so the report stay bit-identical
        monkeypatch.setattr(equilibrium, "_PROBE_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(m)
        params = make_params(rng.uniform(0.5, 8.0, size=m), 2.0 * m, float(m))
        sol = solve_nash(params)
        trials, seed, tol = 300, 17, 1e-6
        report = saddle_probe(params, sol.tx, sol.jam, trials=trials, seed=seed, tol=tol)

        value = float(utility_batch(params, sol.tx.powers, sol.jam.powers)[0])
        draws = np.random.default_rng(seed)
        tx_vals = utility_batch(
            params, sample_simplex(draws, trials, m, params.t_budget), sol.jam.powers
        )
        jam_vals = utility_batch(
            params, sol.tx.powers, sample_simplex(draws, trials, m, params.j_budget)
        )
        assert report.tx_excess == float(tx_vals.max() - value)
        assert report.jam_shortfall == float(value - jam_vals.min())
        assert report.tx_violations == int(np.count_nonzero(tx_vals > value + tol))
        assert report.jam_violations == int(np.count_nonzero(jam_vals < value - tol))

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
        np.testing.assert_allclose(trace.final_tx, [1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(trace.final_jam, [0.5, 0.5], atol=1e-6)

    def test_iterates_are_feasible_and_bounded(self, asym3):
        # the dynamics are deterministic, so a run capped at k steps ends on
        # the k-th iterate of the uncapped run
        for k in range(1, 51):
            trace = run_dynamics(asym3, damping=0.5, max_iters=k)
            assert isinstance(trace, DynamicsTrace)
            assert trace.n_iters <= k
            assert not trace.final_tx.flags.writeable
            assert not trace.final_jam.flags.writeable
            assert np.all(trace.final_tx >= 0.0)
            assert np.all(trace.final_jam >= 0.0)
            assert float(trace.final_tx.sum()) == pytest.approx(4.0, rel=1e-9)
            assert float(trace.final_jam.sum()) == pytest.approx(1.0, rel=1e-9)
            assert math.isfinite(trace.final_value)

    def test_memory_flat_in_max_iters(self):
        # undamped dynamics cycle on this game; a trace that kept every
        # iterate would grow by hundreds of bytes per step
        params = make_params([0.5, 2.0, 4.0], 1.0, 2.0)
        run_dynamics(params, damping=1.0, max_iters=10)  # warm caches
        peaks = {}
        for max_iters in (200, 2000):
            tracemalloc.start()
            try:
                trace = run_dynamics(params, damping=1.0, max_iters=max_iters)
                peaks[max_iters] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not trace.converged
            assert trace.n_iters == max_iters
        assert peaks[2000] < peaks[200] + 50_000

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
        np.testing.assert_array_equal(a.final_tx, b.final_tx)

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

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    def test_rejects_infeasible_start_as_given(self, damping):
        # undamped alternating dynamics never score the start transmitter,
        # and damped ones only see its mix with a best response (46 off)
        params = make_params([1.0, 3.0], 2.0, 1.0)
        start = ([-5.0, 99.0], [0.5, 0.5])
        with pytest.raises(ValueError) as info:
            run_dynamics(params, damping=damping, start=start, alternating=True)
        message = str(info.value)
        assert message.startswith("start tx allocation invalid")
        assert "negative entries at [0]" in message
        assert "power sum off budget by 92" in message

    def test_rejects_infeasible_start_jam(self, symmetric2):
        with pytest.raises(ValueError, match=r"start jam allocation invalid: power sum off"):
            run_dynamics(symmetric2, start=([1.0, 1.0], [0.5, 0.6]))

    def test_rejects_nonpositive_max_iters(self, symmetric2):
        with pytest.raises(ValueError):
            run_dynamics(symmetric2, max_iters=0)


class TestFeasibilityCheckedOnce:
    def test_grid_minimax_checks_no_grid_point(self, asym3, feasibility_checks):
        # grid points are built by the library and feasible by construction
        # (TestGridSpec::test_grid_points_feasible_by_construction)
        grid_minimax(asym3, GridSpec(resolution=21, m=3))
        assert feasibility_checks == []

    @pytest.mark.parametrize("alternating", [False, True])
    def test_run_dynamics_checks_at_most_two_per_step(
        self, asym3, feasibility_checks, alternating
    ):
        trace = run_dynamics(asym3, damping=0.5, max_iters=50, alternating=alternating)
        assert 0 < len(feasibility_checks) <= 2 * trace.n_iters
