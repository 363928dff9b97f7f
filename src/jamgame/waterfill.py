"""Water-filling over per-channel floors.

Solves max sum_k ln(floors[k] + x_k) subject to x >= 0, sum x = budget.  The
optimizer pours power above a common water level v: x_k = max(v - floors[k], 0)
with v chosen so the fills exhaust the budget.  The level is found in closed
form by scanning breakpoints of the piecewise-linear map v -> sum (v - f)+,
which avoids iteration entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Water level, per-channel fills, and the indices that received power."""

    level: float
    fills: np.ndarray
    active: tuple[int, ...]

    def __post_init__(self) -> None:
        fills = np.asarray(self.fills, dtype=float)
        fills.setflags(write=False)
        object.__setattr__(self, "fills", fills)


def _check_floors(floors) -> np.ndarray:
    arr = np.asarray(floors, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("floors must be a non-empty one-dimensional vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("floors must be finite and nonnegative")
    return arr


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
        and ``active`` lists the channels with strictly positive fill.

    Notes
    -----
    With floors sorted ascending, the candidate level using the lowest m
    floors is L_m = (budget + f_1 + ... + f_m) / m.  L_m is the true level
    iff L_m > f_m (all m candidates actually hold water), and the largest
    such m wins.  A zero budget returns level min(floors) with no active
    channel; the level is then the infimum of levels with zero spill, kept
    finite by convention.
    """
    f = _check_floors(floors)
    budget = float(budget)
    if not math.isfinite(budget) or budget < 0.0:
        raise ValueError("budget must be finite and nonnegative")

    if budget == 0.0:
        fills = np.zeros_like(f)
        return WaterSolution(level=float(f.min()), fills=fills, active=())

    order = np.argsort(f, kind="stable")
    fs = f[order]
    counts = np.arange(1, f.size + 1, dtype=float)
    levels = (budget + np.cumsum(fs)) / counts
    # Level candidates stay valid exactly while they sit above their own
    # floor; the last valid one uses every channel that holds water.
    valid = levels > fs
    candidates = np.nonzero(valid)[0]
    if candidates.size == 0:
        # budget below the float resolution of the floors; same as zero budget
        return WaterSolution(level=float(f.min()), fills=np.zeros_like(f), active=())
    m_star = int(candidates[-1]) + 1
    level = float(levels[m_star - 1])
    fills = np.maximum(level - f, 0.0)
    active = tuple(int(k) for k in np.nonzero(fills > 0.0)[0])
    return WaterSolution(level=level, fills=fills, active=active)


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
