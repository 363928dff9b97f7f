"""Independent checks on the closed-form equilibrium.

Two routes that do not share code with the solver:

* grid_minimax discretizes the jammer simplex and minimizes, over the grid,
  the transmitter's exact best response: one water-fill over the floors
  alpha_j*J_k + N_k.  The grid is enumerated in blocks of rows, all in NumPy
  with no Python object per point: each block of points is unranked from its
  lexicographic ranks.  A payoff lower bound, the rate of one fixed
  transmitter allocation, then rules out every point of the block whose
  bound already exceeds the best score so far; the rest are scored exactly,
  with one row water-fill and one payoff evaluation.  Narrow grids come in
  blocks of about 8192 entries; from 16 channels on a block has 512 rows.
  Memory stays O(block) for any number of channels.  Minimizing the inner
  maximum over the grid gives an upper bound on the game value that must sit
  within a provable Lipschitz margin of the closed-form value.
* run_dynamics iterates damped best responses and watches them contract onto
  the equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .best_response import jam_best_response, tx_best_response
from .core import Allocation, GameParams, require_feasible, utility_batch
from .equilibrium import solve_nash
from .waterfill import _fill_rows

__all__ = [
    "EPS_DYN",
    "EPS_STEP",
    "MAX_GRID_POINTS",
    "DynamicsTrace",
    "GridMinimaxResult",
    "GridSpec",
    "grid_minimax",
    "run_dynamics",
]

#: Convergence tolerance for best-response dynamics distance to equilibrium.
EPS_DYN = 1e-6

#: Largest change in any power entry at which run_dynamics stops.
EPS_STEP = 1e-9

#: Most grid points a GridSpec may have.
MAX_GRID_POINTS = 10_000_000

# A block of grid points scored at once holds max(_GRID_BLOCK_ROWS,
# _GRID_BLOCK_ENTRIES // m) rows.  On narrow grids about _GRID_BLOCK_ENTRIES
# entries keep the per-block NumPy calls cheap next to the work in them, and
# make the blocks tall enough for _fill_rows to pour column by column.  Of
# 2**9 to 2**15 entries, 2**13 timed best, or within the host's noise of
# the best, at 3 channels and resolution 201 and at 4 and resolution 41.
# The unranking takes O(m) Python steps per block, so from m = 16 on the
# blocks keep 512 rows rather than fewer.
_GRID_BLOCK_ROWS = 512
_GRID_BLOCK_ENTRIES = 2**13

# grid_minimax scores a grid point unless its payoff lower bound exceeds the
# cut by more than _PRUNE_RTOL * max(1, |cut|).  Both sides are sums of a few
# logarithms, each rounded to about 1e-15 relative, so the margin only has
# to absorb rounding.
_PRUNE_RTOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the jammer-simplex grid.

    ``resolution`` points per axis means a spacing of budget/(resolution - 1)
    and C(resolution - 1 + m - 1, m - 1) grid points in total.  Construction
    rejects grids of more than MAX_GRID_POINTS points, and a resolution whose
    resolution - 1 steps do not fit a 64-bit integer (a one-channel grid has
    one point at any resolution).
    """

    resolution: int
    m: int

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.resolution - 1 > np.iinfo(np.int64).max:
            raise ValueError("resolution - 1 must fit in a 64-bit integer")
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {self.n_points} points exceeds the cap of "
                f"{MAX_GRID_POINTS} evaluations"
            )

    @property
    def n_points(self) -> int:
        return math.comb(self.resolution - 1 + self.m - 1, self.m - 1)


def _grid_blocks(steps: int, m: int) -> Iterator[np.ndarray]:
    """All m-vectors of nonnegative ints summing to ``steps``.

    Yielded in lexicographic order as (B, m) int64 blocks of
    max(_GRID_BLOCK_ROWS, _GRID_BLOCK_ENTRIES // m) rows, the last one
    possibly shorter: about _GRID_BLOCK_ENTRIES entries on narrow grids, and
    512 rows from m = 16 on.  Each block is built from its ranks
    with NumPy, one coordinate at a time, by unranking the combinatorial
    number system: with N(t, k) = C(t + k - 1, k - 1) points of sum t in k
    coordinates, a point holds q = N(steps, m) - rank, and its first
    coordinate is steps - t for the smallest t with N(t, k) >= q; the rest of
    the point is the point of sum t in k - 1 coordinates holding
    q - N(t - 1, k).  For k = 2 that t is q - 1, so no table is needed.  The
    tables of N(t, k) for k >= 3 hold (m - 2) * (steps + 1) integers, at
    most about half a block's worth on any grid GridSpec admits (the most is
    at m = 3), so memory stays O(block) for every m.
    """
    total = math.comb(steps + m - 1, m - 1)
    # tables[j] = [0, N(0, k), ..., N(steps, k)] for k = m - j, from m down to 3
    tables = []
    if m >= 3:
        counts = np.arange(1, steps + 2, dtype=np.int64)  # N(t, 2) = t + 1
        for _ in range(3, m + 1):
            counts = np.cumsum(counts)
            tables.append(np.concatenate(([0], counts)))
        tables.reverse()
    rows = max(_GRID_BLOCK_ROWS, _GRID_BLOCK_ENTRIES // m)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        q = total - np.arange(start, stop, dtype=np.int64)
        block = np.empty((stop - start, m), dtype=np.int64)
        rem = steps
        for j, padded in enumerate(tables):
            t = np.searchsorted(padded, q) - 1
            block[:, j] = rem - t
            q = q - padded[t]
            rem = t
        if m >= 2:
            block[:, m - 2] = rem - (q - 1)
            rem = q - 1
        block[:, m - 1] = rem
        yield block


@dataclass(frozen=True, eq=False)
class GridMinimaxResult:
    """Outcome of the outer minimization over the jammer grid.

    ``value`` is min over grid jammer points of the exact inner maximum, an
    upper bound on the true game value.  ``gap_bound`` = spacing times the
    Lipschitz bound is how far the grid optimum can exceed the continuum one.
    """

    value: float
    jam: np.ndarray
    tx: np.ndarray
    spacing: float
    lipschitz_bound: float
    gap_bound: float
    n_points: int

    def __post_init__(self) -> None:
        for name in ("jam", "tx"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _grid_seed(params: GameParams, steps: int) -> np.ndarray:
    """The grid point nearest the equilibrium jammer, in grid units.

    At the equilibrium the jammer water-fills alpha_j*J over the noise alone,
    so its share of each channel is known before any grid point is scored.
    The shares times ``steps`` are rounded onto the grid by largest
    remainder: every coordinate is floored, and the units lost go to the
    largest remainders, the first channel first on ties.  The result is
    always a grid point; shares that are not finite (no water held, or an
    overflowed budget) fall back to an even split.
    """
    if params.m == 1:
        # the one point; steps may not survive a round trip through float
        return np.array([steps], dtype=np.int64)
    with np.errstate(all="ignore"):
        _, fills = _fill_rows(params.noise[np.newaxis, :], params.alpha_j * params.j_budget)
        x = fills[0] / fills[0].sum() * steps
    if not np.all(np.isfinite(x)):
        x = np.full(params.m, steps / params.m)
    point = np.floor(x).astype(np.int64)
    order = np.argsort(point - x, kind="stable")
    point[order[: steps - int(point.sum())]] += 1
    return point


def _payoff_bound(
    params: GameParams, tx: np.ndarray, block: np.ndarray, spacing: float
) -> np.ndarray:
    """Payoff of the fixed transmitter powers ``tx`` at each point of ``block``.

    Row i gets (1/2) sum_k log1p(alpha_t*tx_k / (alpha_j*spacing*i_k + N_k)),
    which is utility_batch(params, tx, i*spacing) up to rounding, from the
    block's integer coordinates.  The sum is built one channel column at a
    time over all rows; a channel without transmit power adds exactly
    nothing and is skipped.
    """
    per_step = params.alpha_j * spacing
    total = np.zeros(len(block))
    for k in np.flatnonzero(tx > 0.0):
        term = block[:, k] * per_step
        term += params.noise[k]
        np.divide(params.alpha_t * tx[k], term, out=term)
        total += np.log1p(term, out=term)
    return 0.5 * total


def grid_minimax(params: GameParams, spec: GridSpec) -> GridMinimaxResult:
    """Minimax over a discretized jammer simplex, pruned by a payoff bound.

    The jammer grid has ``spec.resolution`` levels per axis; the transmitter
    side stays exact via water-filling, so the only discretization error is
    the jammer's.  The payoff is Lipschitz in the jammer allocation with
    constant at most alpha_j / (2 min_k N_k) per unit of L1 movement, and any
    simplex point is within m*spacing of a grid point in L1, hence

        0 <= grid value - true value <= spacing * lipschitz_bound

    with lipschitz_bound = m * alpha_j / (2 min_k N_k).  Ties on the grid
    resolve to the lexicographically smallest jammer point, keeping results
    reproducible.  Grid points are feasible by construction and are not
    checked.

    A point's score, the inner maximum, is at least the payoff of any
    feasible transmitter allocation against it.  The allocation used is the
    transmitter's water-fill against a seed: the grid point nearest the
    equilibrium jammer, which the paper gives in closed form as a water-fill
    of the jammer over the noise alone.  The cut is the lower of the seed's
    exact score and the best exact score so far, so it is never below the
    grid value.  A point whose bound exceeds the cut by more than a rounding
    margin scores above the grid value and is skipped; every other point
    (NaN bounds included) is scored exactly, block by block in lexicographic
    order, with one row water-fill of alpha_t*T over the floors
    alpha_j*J_k + N_k and one payoff evaluation.  Every point that attains
    the grid value is scored (the margin covers the rounding of both sums),
    so the result is the one an exhaustive scan gives.  A seed far from the optimum only loosens the bound and leaves
    more points to score; it never changes the answer.  ``n_points`` counts
    every grid point, skipped or scored.
    """
    if spec.m != params.m:
        raise ValueError("grid dimension does not match the game")
    steps = spec.resolution - 1
    spacing = params.j_budget / steps
    tx_budget = params.alpha_t * params.t_budget

    def score(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        jam = points * spacing
        _, fills = _fill_rows(params.alpha_j * jam + params.noise, tx_budget)
        tx = fills / params.alpha_t
        return jam, tx, utility_batch(params, tx, jam)

    _, seed_tx, seed_value = score(_grid_seed(params, steps)[np.newaxis, :])
    cut = float(seed_value[0])
    # A budget below the float resolution of the floors can pour up to an
    # ulp of the level per channel, far more than the budget; scaled back
    # onto the budget the allocation is feasible, and its payoff a bound.
    seed_tx = seed_tx[0]
    poured = float(seed_tx.sum())
    if poured > params.t_budget:
        seed_tx = seed_tx * (params.t_budget / poured)
    best_value = math.inf
    best_jam: np.ndarray | None = None
    best_tx: np.ndarray | None = None
    n_points = 0
    for block in _grid_blocks(steps, spec.m):
        n_points += len(block)
        bound = _payoff_bound(params, seed_tx, block, spacing)
        # not (bound > limit), so that a NaN bound keeps its row
        kept = block[~(bound > cut + _PRUNE_RTOL * max(1.0, abs(cut)))]
        if not len(kept):
            continue
        jam, tx, inner = score(kept)
        k = int(np.argmin(inner))
        # strict: an earlier block keeps a tie, and argmin keeps the first
        if inner[k] < best_value:
            best_value = float(inner[k])
            best_jam = jam[k].copy()
            best_tx = tx[k].copy()
            cut = min(best_value, cut)

    lipschitz = params.m * params.alpha_j / (2.0 * float(params.noise.min()))
    return GridMinimaxResult(
        value=best_value,
        jam=best_jam,
        tx=best_tx,
        spacing=spacing,
        lipschitz_bound=lipschitz,
        gap_bound=spacing * lipschitz,
        n_points=n_points,
    )


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """Iterates of damped best-response dynamics and where they ended up.

    ``iterates`` holds one (tx_powers, jam_powers, utility) triple per update
    step.  ``final_distance`` is the sup-norm distance from the last iterate
    to the closed-form equilibrium, across both players' power vectors.
    """

    iterates: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    damping: float
    alternating: bool
    converged: bool
    final_distance: float

    @property
    def n_iters(self) -> int:
        return len(self.iterates)


def run_dynamics(
    params: GameParams,
    damping: float = 0.5,
    max_iters: int = 10_000,
    start: tuple[np.ndarray, np.ndarray] | None = None,
    alternating: bool = False,
) -> DynamicsTrace:
    """Iterate x <- (1 - damping)*x + damping*BR(opponent) for both players.

    By default both players update simultaneously from the previous iterate;
    with ``alternating=True`` the jammer reacts to the transmitter's fresh
    update within the same step.  Iteration stops when the largest change in
    any power entry falls below EPS_STEP (then ``converged`` is True) or after
    ``max_iters`` steps.  ``start`` defaults to uniform allocations; a
    caller's start is checked once, on entry, with require_feasible.  The
    reference equilibrium is solved before the first step, so a game that
    solve_nash rejects fails with its error before any iterate is built.

    The successive-change threshold is deliberately tighter than EPS_DYN:
    with damping around 0.5 the residual distance to the fixed point is a
    small multiple of the last step size, so stopping at 1e-9 leaves
    final_distance comfortably below 1e-6.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    reference = solve_nash(params)

    if start is None:
        tx_powers = np.full(params.m, params.t_budget / params.m)
        jam_powers = np.full(params.m, params.j_budget / params.m)
    else:
        tx_powers = np.array(start[0], dtype=float)
        jam_powers = np.array(start[1], dtype=float)
        tx_start = Allocation(powers=tx_powers, budget=params.t_budget)
        jam_start = Allocation(powers=jam_powers, budget=params.j_budget)
        require_feasible(tx_start, params.t_budget, params.m, "start tx")
        require_feasible(jam_start, params.j_budget, params.m, "start jam")

    iterates: list[tuple[np.ndarray, np.ndarray, float]] = []
    converged = False
    for _ in range(max_iters):
        tx_alloc = Allocation(powers=tx_powers, budget=params.t_budget)
        jam_alloc = Allocation(powers=jam_powers, budget=params.j_budget)
        tx_br, _ = tx_best_response(params, jam_alloc)
        new_tx = (1.0 - damping) * tx_powers + damping * tx_br.powers
        if alternating:
            jam_br, _ = jam_best_response(
                params, Allocation(powers=new_tx, budget=params.t_budget)
            )
        else:
            jam_br, _ = jam_best_response(params, tx_alloc)
        new_jam = (1.0 - damping) * jam_powers + damping * jam_br.powers

        step = max(
            float(np.max(np.abs(new_tx - tx_powers))),
            float(np.max(np.abs(new_jam - jam_powers))),
        )
        tx_powers, jam_powers = new_tx, new_jam
        value = float(utility_batch(params, tx_powers, jam_powers)[0])
        tx_snapshot = tx_powers.copy()
        jam_snapshot = jam_powers.copy()
        tx_snapshot.setflags(write=False)
        jam_snapshot.setflags(write=False)
        iterates.append((tx_snapshot, jam_snapshot, value))
        if step <= EPS_STEP:
            converged = True
            break

    final_distance = max(
        float(np.max(np.abs(tx_powers - reference.tx.powers))),
        float(np.max(np.abs(jam_powers - reference.jam.powers))),
    )
    return DynamicsTrace(
        iterates=tuple(iterates),
        damping=damping,
        alternating=alternating,
        converged=converged,
        final_distance=final_distance,
    )
