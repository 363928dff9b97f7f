"""Independent checks on the closed-form equilibrium.

Neither check uses the solver's closed-form construction: the nested
water-fills for the levels v and w, and the multiplier u that ties them.
Both share lower layers with the solver.  grid_minimax scores its points
with _fill_rows and utility_batch; run_dynamics steps with the two best
responses and calls solve_nash only for the point that final_distance is
measured against.

* grid_minimax minimizes the transmitter's exact best response over a grid
  of the jammer simplex, walking the grid as a tree of prefixes and scoring
  only the points a payoff lower bound cannot rule out, in memory O(chunk +
  m*steps).  The grid minimum is an upper bound on the game value within a
  provable Lipschitz margin.
* run_dynamics repeats damped best responses and watches them contract onto
  the equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .best_response import jam_best_response, tx_best_response
from .core import Allocation, GameParams, _vector, require_feasible, utility_batch
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

# _walk makes _CHUNK_ENTRIES children, or max(1, _CHUNK_ENTRIES // m) points, at a time.
_CHUNK_ENTRIES = 2**13

# A prefix is cut off when its least payoff bound exceeds the best score by more than
# _PRUNE_RTOL * max(1, |best|); both are sums of logarithms, so this absorbs rounding.
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
            object.__setattr__(self, name, _vector(getattr(self, name), name))


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


def _bound_term(params: GameParams, tx: np.ndarray, spacing: float) -> Callable:
    """g(k, i) = (1/2) log1p(alpha_t*tx_k / (alpha_j*spacing*i + N_k)), convex in i:
    the payoff of ``tx`` at grid point i is sum_k g(k, i_k).  k and i are arrays.
    A ratio past the float range is the exact bound +inf."""
    gain, per_step = params.alpha_t * tx, params.alpha_j * spacing

    def term(k, i):
        with np.errstate(over="ignore"):
            return 0.5 * np.log1p(gain[k] / (per_step * i + params.noise[k]))

    return term


def _min_plus(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Row by row, min over a of head[a] + tail[r - a] for every r.

    For convex rows the best split of r gives the head as many units as it
    has slopes among the first r merged sorted slopes; each entry is one sum
    at its split, so its rounding does not grow with r.  A running maximum
    reorders slopes rounding left out of order; a slope between two infinite
    terms counts as -inf, and a row with a NaN term is NaN (it cuts nothing).
    """
    n, width = head.shape
    slopes = np.empty((n, 2 * (width - 1)))
    with np.errstate(invalid="ignore"):
        np.subtract(head[:, 1:], head[:, :-1], out=slopes[:, : width - 1])
        np.subtract(tail[:, 1:], tail[:, :-1], out=slopes[:, width - 1 :])
    slopes[np.isnan(slopes)] = -np.inf
    for part in (slopes[:, : width - 1], slopes[:, width - 1 :]):
        np.maximum.accumulate(part, axis=1, out=part)
    # the stable sort puts a head slope before the tail slopes it equals
    taken = np.argsort(slopes, axis=1, kind="stable")[:, : width - 1] < width - 1
    split = np.zeros((n, width), dtype=np.intp)
    np.cumsum(taken, axis=1, out=split[:, 1:])
    rows = np.arange(n)[:, np.newaxis]
    low = head[rows, split] + tail[rows, np.arange(width) - split]
    low[np.isnan(head).any(axis=1) | np.isnan(tail).any(axis=1)] = np.nan
    return low


def _completion_bound(term: Callable, steps: int, m: int) -> Callable:
    """rest(j, r): the least sum of term(k, i_k) over k >= j with sum i_k = r.

    For m >= 3 the tables D_1 .. D_(m-1), steps + 1 long, are a suffix scan
    of _min_plus over the terms in log2(m) rounds, and D_m = 0.  At m = 2
    the last term is evaluated in closed form: 10**7 steps need no table.
    """
    if m <= 2:
        return lambda j, r: np.where(j == m - 1, term(m - 1, r), 0.0)
    least = np.zeros((m, steps + 1))
    least[:-1] = term(np.arange(1, m)[:, np.newaxis], np.arange(steps + 1))
    for shift in (1 << e for e in range((m - 2).bit_length())):
        least[: m - 1 - shift] = _min_plus(least[: m - 1 - shift], least[shift : m - 1])
    return lambda j, r: least[j - 1, r]


def _walk(
    steps: int, m: int, term: Callable, rest: Callable, limit: Callable[[], float]
) -> Iterator[np.ndarray]:
    """The grid points the bound cannot rule out, in (B, m) int64 chunks.

    A depth-first walk of a tree of nonzero coordinates, at most
    min(steps, m - 1) deep: a child places i >= 1 of its parent's r steps
    left at a later coordinate p, and is cut off with its subtree when the
    sum of term over its coordinates (zeros included) plus rest(p + 1, r - i)
    exceeds limit() (a NaN keeps it).  A child with no steps left, or p =
    m - 2, is a grid point.  The points are not in lexicographic order.
    """
    if m == 1 or steps == 0:
        yield np.array([[0] * (m - 1) + [steps]], dtype=np.int64)
        return
    rows = max(1, _CHUNK_ENTRIES // m)
    zeros = np.concatenate(([0.0], np.cumsum(term(np.arange(m), 0))))
    # stack[d]: prefixes with d nonzero coordinates: the last one's coordinate and value, the
    # prefix extended (in stack[d - 1]), steps left, bound, first child, children made, all.
    one = np.ones(1, dtype=np.int64)
    stack = [[-one, one, one, steps * one, np.zeros(1), 0 * one, 0, (m - 1) * steps + 1]]
    while stack:
        pos, _, _, rem, low, first, start, total = level = stack[-1]
        if start == total:
            stack.pop()
            continue
        level[6] = min(start + _CHUNK_ENTRIES, total)
        c = np.arange(start, level[6])
        node = np.searchsorted(first[1:], c, side="right")
        c -= first[node]
        q, r = pos[node], rem[node]
        # i from r down at each later p; the last child puts all r on m - 1
        p, i = np.divmod(c, r)
        q += 1
        p += q
        i = r - i
        r -= i
        b = zeros[p] - zeros[q]
        b += low[node]
        b += term(p, i)
        kept = np.flatnonzero(~(rest(p + 1, r) + b > limit()))
        if len(kept) < len(b):
            node, p, i, r, b = node[kept], p[kept], i[kept], r[kept], b[kept]
        leaf = (r == 0) | (p == m - 2)
        done = np.flatnonzero(leaf)
        for at in range(0, len(done), rows):
            sel = done[at : at + rows]
            points = np.zeros((len(sel), m), dtype=np.int64)
            points[:, m - 1] = r[sel]  # then overwritten where p = m - 1
            cells, rows_at = points.reshape(-1), np.arange(0, points.size, m)
            cells[rows_at + p[sel]] = i[sel]
            up = node[sel]
            for coord, value, below, *_ in reversed(stack[1:]):
                cells[rows_at + coord[up]] = value[up]
                up = below[up]
            yield points
        grow = ~leaf
        if grow.any():
            p, i, node, r, b = p[grow], i[grow], node[grow], r[grow], b[grow]
            counts = (m - 2 - p) * r + 1
            stack.append([p, i, node, r, b, np.cumsum(counts) - counts, 0, counts.sum()])


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
    feasible transmitter allocation against it: here the water-fill against
    the grid point nearest the paper's equilibrium jammer (a water-fill of
    the noise alone), which is scored first.  _walk cuts off every prefix
    whose least payoff bound exceeds the best score so far by more than a
    rounding margin.  Each chunk of survivors is scored with one row
    water-fill and one payoff evaluation; a tie is broken by comparing the
    points, as in an exhaustive scan.  ``n_points`` counts every grid point.
    """
    if spec.m != params.m:
        raise ValueError("grid dimension does not match the game")
    steps = spec.resolution - 1
    spacing = params.j_budget / steps
    tx_budget = params.alpha_t * params.t_budget
    # every grid point sorts below [inf], so the first comparable score, +inf too, is taken
    best_value, best_point, best_jam, best_tx = math.inf, [math.inf], None, None

    def visit(points: np.ndarray) -> np.ndarray:
        nonlocal best_value, best_point, best_jam, best_tx
        jam = points * spacing
        _, fills = _fill_rows(params.alpha_j * jam + params.noise, tx_budget)
        tx = fills / params.alpha_t
        inner = utility_batch(params, tx, jam)
        k = int(np.argmin(inner))  # a NaN least score adds nothing
        if inner[k] > best_value:
            return tx
        k = min(np.flatnonzero(inner == inner[k]), key=lambda t: points[t].tolist(), default=k)
        if inner[k] < best_value or (inner[k] == best_value and points[k].tolist() < best_point):
            best_value, best_point = float(inner[k]), points[k].tolist()
            best_jam, best_tx = jam[k].copy(), tx[k].copy()
        return tx

    seed_tx = visit(_grid_seed(params, steps)[np.newaxis, :])[0]
    # A budget below the float resolution of the floors can pour up to an
    # ulp of the level per channel, far more than the budget; scaled back
    # onto the budget the allocation is feasible, and its payoff a bound.
    poured = float(seed_tx.sum())
    if poured > params.t_budget:
        seed_tx = seed_tx * (params.t_budget / poured)
    term = _bound_term(params, seed_tx, spacing)
    limit = lambda: best_value + _PRUNE_RTOL * max(1, abs(best_value))
    for points in _walk(steps, spec.m, term, _completion_bound(term, steps, spec.m), limit):
        visit(points)

    if best_jam is None:
        raise ValueError("no grid point has a comparable score")
    lipschitz = params.m * params.alpha_j / (2.0 * float(params.noise.min()))
    return GridMinimaxResult(
        value=best_value, jam=best_jam, tx=best_tx, spacing=spacing,
        lipschitz_bound=lipschitz, gap_bound=spacing * lipschitz, n_points=spec.n_points,
    )


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """Where damped best-response dynamics ended up.

    ``final_tx`` and ``final_jam`` are the read-only power vectors after the
    last of ``n_iters`` update steps, and ``final_value`` the payoff there.
    ``final_distance`` is the sup-norm distance from that iterate to the
    closed-form equilibrium, across both players' power vectors.
    """

    final_tx: np.ndarray
    final_jam: np.ndarray
    final_value: float
    n_iters: int
    damping: float
    alternating: bool
    converged: bool
    final_distance: float

    def __post_init__(self) -> None:
        for name in ("final_tx", "final_jam"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))


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
    Only the current iterate is kept, so memory is O(m) for any
    ``max_iters``.

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

    converged = False
    for n_iters in range(1, max_iters + 1):
        tx_alloc = Allocation(powers=tx_powers, budget=params.t_budget)
        jam_alloc = Allocation(powers=jam_powers, budget=params.j_budget)
        tx_br, _ = tx_best_response(params, jam_alloc)
        new_tx = (1.0 - damping) * tx_powers + damping * tx_br.powers
        if alternating:
            tx_alloc = Allocation(powers=new_tx, budget=params.t_budget)
        jam_br, _ = jam_best_response(params, tx_alloc)
        new_jam = (1.0 - damping) * jam_powers + damping * jam_br.powers

        step = max(
            float(np.max(np.abs(new_tx - tx_powers))),
            float(np.max(np.abs(new_jam - jam_powers))),
        )
        tx_powers, jam_powers = new_tx, new_jam
        if step <= EPS_STEP:
            converged = True
            break

    final_distance = max(
        float(np.max(np.abs(tx_powers - reference.tx.powers))),
        float(np.max(np.abs(jam_powers - reference.jam.powers))),
    )
    value = float(utility_batch(params, tx_powers, jam_powers)[0])
    return DynamicsTrace(
        final_tx=tx_powers, final_jam=jam_powers, final_value=value, n_iters=n_iters,
        damping=damping, alternating=alternating, converged=converged,
        final_distance=final_distance,
    )
