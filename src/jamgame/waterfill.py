"""Water-filling over per-channel floors.

Solves max sum_k ln(floors[k] + x_k) subject to x >= 0, sum x = budget.  The
optimizer pours power above a common water level v: x_k = max(v - floors[k], 0)
with v chosen so the fills exhaust the budget.  The level is found in closed
form by scanning breakpoints of the piecewise-linear map v -> sum (v - f)+,
which avoids iteration entirely.

One row kernel, _fill_rows, does the pouring for a whole (B, M) block of
floors at one budget.  water_fill runs it on a single row; grid_minimax
runs it on blocks of jammer grid points.  The kernel scans the breakpoints
of every row at once with cumsum and a reversed argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _readonly

__all__ = [
    "EPS_SOLVE",
    "LevelCheck",
    "WaterSolution",
    "level_for_fills",
    "water_fill",
]

#: Tolerance on the water-level equation sum (v - f)+ = budget, relative to
#: max(1, scale) where scale is the magnitude of the quantity checked.
EPS_SOLVE = 1e-12


@dataclass(frozen=True, eq=False)
class WaterSolution:
    """Water level, per-channel fills, and the indices that received power.

    ``fills`` and ``active`` (ascending channel indices) are read-only arrays.
    """

    level: float
    fills: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("fills", float), ("active", np.intp)):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype)))


def _check_floors(floors) -> np.ndarray:
    arr = np.asarray(floors, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("floors must be a non-empty one-dimensional vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("floors must be finite and nonnegative")
    return arr


def _fill_rows(floors: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill ``budget`` over every row of a (B, M) array of floors.

    Returns the (B,) water levels and the (B, M) fills.  The inputs are
    trusted: floors finite and nonnegative, budget finite and nonnegative.
    Each row is solved exactly as water_fill documents; a row in which no
    candidate level holds water (a zero budget, or one below the float
    resolution of the floors) gets its lowest floor as the level and no fill.
    The candidate levels of all sorted rows are scanned at once, along the
    rows, with cumsum and a reversed argmax.
    """
    fs = np.sort(floors, axis=1, kind="stable")
    n_rows, width = fs.shape
    # Level candidates stay valid exactly while they sit above their own
    # floor; the last valid one uses every channel that holds water.  A zero
    # budget pours nothing even where a rounded mean of equal floors lands
    # one ulp above them.
    counts = np.arange(1, width + 1, dtype=float)
    levels = (budget + np.cumsum(fs, axis=1)) / counts
    valid = (levels > fs) & (budget > 0.0)
    last = width - 1 - np.argmax(valid[:, ::-1], axis=1)
    rows = np.arange(n_rows)
    level = np.where(valid[rows, last], levels[rows, last], fs[:, 0])
    fills = np.maximum(level[:, None] - floors, 0.0)
    return level, fills


def water_fill(floors, budget: float) -> WaterSolution:
    """Spread ``budget`` above ``floors`` at a common water level.

    Parameters
    ----------
    floors : array_like
        Per-channel floor heights (noise-plus-interference terms), finite
        and nonnegative.
    budget : float
        Total power to distribute, nonnegative.

    Returns
    -------
    WaterSolution
        ``level`` is the water level v, ``fills[k] = max(v - floors[k], 0)``,
        and ``active`` holds the indices of the channels with strictly
        positive fill, ascending.

    Notes
    -----
    With floors sorted ascending, the candidate level using the lowest m
    floors is L_m = (budget + f_1 + ... + f_m) / m.  L_m is the true level
    iff L_m > f_m (all m candidates actually hold water), and the largest
    such m wins.  A zero budget, or one below the float resolution of the
    floors, returns level min(floors) with no active channel; the level is
    then the infimum of levels with zero spill, kept finite by convention.
    """
    f = _check_floors(floors)
    budget = float(budget)
    if not math.isfinite(budget) or budget < 0.0:
        raise ValueError("budget must be finite and nonnegative")
    level, fills = _fill_rows(f[np.newaxis, :], budget)
    active = np.flatnonzero(fills[0] > 0.0)
    return WaterSolution(level=float(level[0]), fills=fills[0], active=active)


@dataclass(frozen=True)
class LevelCheck:
    """Result of reconstructing a water level from fills."""

    level: float | None
    consistent: bool
    detail: str


def level_for_fills(floors, fills) -> LevelCheck:
    """Recover the common water level implied by ``fills`` and vet it.

    Every strictly positive fill must reach the same height floor + fill, and
    no inactive channel may have its floor below that height.  Returns the
    reconstructed level with ``consistent=False`` and a reason when the fills
    are not a water-filling pattern.  All-zero fills are trivially consistent
    with no recoverable level.
    """
    f = _check_floors(floors)
    x = np.asarray(fills, dtype=float)
    if x.shape != f.shape:
        raise ValueError("fills must match floors in shape")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("fills must be finite and nonnegative")

    active = np.nonzero(x > 0.0)[0]
    if active.size == 0:
        return LevelCheck(level=None, consistent=True, detail="no active channel")

    heights = f[active] + x[active]
    level = float(heights[0])
    tol = EPS_SOLVE * max(1.0, abs(level))
    if np.any(np.abs(heights - level) > tol):
        return LevelCheck(
            level=level,
            consistent=False,
            detail="active channels reach unequal heights",
        )
    idle = np.nonzero(x == 0.0)[0]
    if idle.size and np.any(f[idle] < level - tol):
        return LevelCheck(
            level=level,
            consistent=False,
            detail="idle channel sits below the water level",
        )
    return LevelCheck(level=level, consistent=True, detail="ok")
