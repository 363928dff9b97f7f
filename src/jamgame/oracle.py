"""Independent checks on the closed-form equilibrium.

Two routes that do not share code with the solver:

* grid_minimax discretizes the jammer simplex and, at every grid point,
  answers with the transmitter's exact best response: one water-fill over
  the floors alpha_j*J_k + N_k.  The grid is scored in blocks of rows, one
  row water-fill and one payoff evaluation per block.  Minimizing the inner
  maximum over the grid gives an upper bound on the game value that must sit
  within a provable Lipschitz margin of the closed-form value.
* run_dynamics iterates damped best responses and watches them contract onto
  the equilibrium.
"""

from __future__ import annotations

import itertools
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

# Rows per block of grid points scored at once.  Large enough that the
# per-block NumPy calls are cheap next to the work in them, small enough to
# keep peak memory flat even at MAX_GRID_POINTS.
_GRID_BLOCK_ROWS = 512


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the jammer-simplex grid.

    ``resolution`` points per axis means a spacing of budget/(resolution - 1)
    and C(resolution - 1 + m - 1, m - 1) grid points in total.  Construction
    rejects grids of more than MAX_GRID_POINTS points.
    """

    resolution: int
    m: int

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
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

    Yielded in lexicographic order as (B, m) blocks of at most
    _GRID_BLOCK_ROWS rows.  Stars and bars: each choice of m - 1 bar
    positions among steps + m - 1 slots is one point, and the counts between
    consecutive bars are its coordinates; combinations come in lexicographic
    order, and so do the points.
    """
    slots = steps + m - 1
    bars = itertools.combinations(range(slots), m - 1)
    while True:
        chunk = list(itertools.islice(bars, _GRID_BLOCK_ROWS))
        if not chunk:
            return
        cuts = np.array(chunk, dtype=np.int64).reshape(len(chunk), m - 1)
        yield np.diff(cuts, axis=1, prepend=-1, append=slots) - 1


@dataclass(frozen=True, eq=False)
class GridMinimaxResult:
    """Outcome of the brute-force outer minimization.

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


def grid_minimax(params: GameParams, spec: GridSpec) -> GridMinimaxResult:
    """Exhaustive minimax over a discretized jammer simplex.

    The jammer grid has ``spec.resolution`` levels per axis; the transmitter
    side stays exact via water-filling, so the only discretization error is
    the jammer's.  The payoff is Lipschitz in the jammer allocation with
    constant at most alpha_j / (2 min_k N_k) per unit of L1 movement, and any
    simplex point is within m*spacing of a grid point in L1, hence

        0 <= grid value - true value <= spacing * lipschitz_bound

    with lipschitz_bound = m * alpha_j / (2 min_k N_k).  Ties on the grid
    resolve to the lexicographically smallest jammer point, keeping results
    reproducible.  Grid points are feasible by construction and are not
    checked; each block of them is scored with one row water-fill of
    alpha_t*T over the floors alpha_j*J_k + N_k and one payoff evaluation.
    """
    if spec.m != params.m:
        raise ValueError("grid dimension does not match the game")
    steps = spec.resolution - 1
    spacing = params.j_budget / steps
    tx_budget = params.alpha_t * params.t_budget

    best_value = math.inf
    best_jam: np.ndarray | None = None
    best_tx: np.ndarray | None = None
    n_points = 0
    for block in _grid_blocks(steps, spec.m):
        jam = block * spacing
        _, fills = _fill_rows(params.alpha_j * jam + params.noise, tx_budget)
        tx = fills / params.alpha_t
        inner = utility_batch(params, tx, jam)
        n_points += len(block)
        k = int(np.argmin(inner))
        # strict: an earlier block keeps a tie, and argmin keeps the first
        if inner[k] < best_value:
            best_value = float(inner[k])
            best_jam = jam[k].copy()
            best_tx = tx[k].copy()

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
    caller's start is checked once, on entry, with require_feasible.

    The successive-change threshold is deliberately tighter than EPS_DYN:
    with damping around 0.5 the residual distance to the fixed point is a
    small multiple of the last step size, so stopping at 1e-9 leaves
    final_distance comfortably below 1e-6.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")

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

    reference = solve_nash(params)
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
