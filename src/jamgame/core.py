"""Data model and payoff evaluation for the transmitter-vs-jammer power game.

Two players split fixed power budgets across M parallel Gaussian channels:
the transmitter maximizes her aggregate rate, the jammer (whose signal the
receiver treats as extra noise) minimizes it.  The rate is the zero-sum
payoff.  All powers are linear units; rates are nats per channel use.

One flat record, GameParams, fixes a game: the noise powers, the two
attenuations and the two budgets.  Allocation is one player's power split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BUDGET_RTOL",
    "Allocation",
    "GameParams",
    "require_feasible",
    "sample_simplex",
    "utility",
    "utility_batch",
]

#: Relative tolerance on an allocation's budget sum.
BUDGET_RTOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    return _readonly(arr)


def _positive_scalar(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and positive")
    return value


@dataclass(frozen=True, eq=False)
class GameParams:
    """One game: per-channel noise powers, both attenuations, both budgets.

    ``noise[k]`` is the AWGN power on channel k; ``alpha_t`` and ``alpha_j``
    attenuate the transmitter and jammer signals on every channel alike;
    ``t_budget`` and ``j_budget`` are the players' total powers.
    """

    noise: np.ndarray
    alpha_t: float
    alpha_j: float
    t_budget: float
    j_budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise", _vector(self.noise, "noise"))
        if self.noise.size == 0:
            raise ValueError("noise must contain at least one channel")
        if not np.all(np.isfinite(self.noise)) or np.any(self.noise <= 0.0):
            raise ValueError("every noise power must be finite and positive")
        for name in ("alpha_t", "alpha_j", "t_budget", "j_budget"):
            object.__setattr__(self, name, _positive_scalar(getattr(self, name), name))

    @property
    def m(self) -> int:
        return int(self.noise.size)


@dataclass(frozen=True, eq=False)
class Allocation:
    """A per-channel power split and the budget its entries should sum to.

    Construction does not enforce feasibility.  require_feasible is the one
    check, run where an allocation enters the library (the best responses,
    utility, saddle_probe, verify_nash); allocations the library builds
    itself are feasible by construction and are not checked again.
    """

    powers: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", _vector(self.powers, "powers"))
        object.__setattr__(self, "budget", float(self.budget))


def require_feasible(alloc: Allocation, budget: float, m: int, who: str) -> None:
    """Raise ValueError unless ``alloc`` is a feasible allocation of ``budget``.

    The one feasibility rule: the declared budget matches ``budget``, there
    are ``m`` entries, every entry is finite and nonnegative, and the entries
    sum to the budget within BUDGET_RTOL (relative to the budget).  A feasible
    input costs one sum and one min; the problems are only spelled out for
    the error message.
    """
    if abs(alloc.budget - budget) > BUDGET_RTOL * abs(budget):
        raise ValueError(
            f"{who} allocation budget {alloc.budget:.12g} does not match {budget:.12g}"
        )
    powers = alloc.powers
    budget_tol = BUDGET_RTOL * abs(alloc.budget)
    # A NaN or infinite entry makes the sum non-finite, so this also checks
    # finiteness; opposite infinities and a sum past the float range do so quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        gap = abs(float(powers.sum()) - alloc.budget)
    if powers.size == m and gap <= budget_tol and powers.min() >= 0.0:
        return
    finite = np.isfinite(powers)
    problems = []
    if powers.size != m:
        problems.append(f"length {powers.size} != expected {m}")
    if not finite.all():
        problems.append(f"non-finite entries at {np.flatnonzero(~finite).tolist()}")
    negative = np.flatnonzero(finite & (powers < 0.0)).tolist()
    if negative:
        problems.append(f"negative entries at {negative}")
    gap = gap if finite.all() else math.inf
    if gap > budget_tol:
        problems.append(f"power sum off budget by {gap:.6g}")
    raise ValueError(f"{who} allocation invalid: {'; '.join(problems)}")


def utility(params: GameParams, tx: Allocation, jam: Allocation) -> float:
    """Transmitter rate (1/2)·sum_k ln(1 + alpha_t·T_k / (alpha_j·J_k + N_k)).

    The checked entry point: both allocations must pass require_feasible
    against their budgets.  The result is finite and nonnegative since every
    noise power is positive.  utility_batch is the formula itself.
    """
    require_feasible(tx, params.t_budget, params.m, "tx")
    require_feasible(jam, params.j_budget, params.m, "jam")
    return float(utility_batch(params, tx.powers, jam.powers)[0])


def utility_batch(params: GameParams, tx_powers, jam_powers) -> np.ndarray:
    """Row-wise transmitter rates for batched raw power vectors.

    ``tx_powers`` and ``jam_powers`` broadcast against each other along the
    leading axis; no feasibility checks are applied.  The one payoff formula:
    utility checks its inputs and calls it, and the library scores the
    allocations it builds itself (and the deviation probes' simplex samples)
    with it directly.
    """
    tx = np.atleast_2d(np.asarray(tx_powers, dtype=float))
    jam = np.atleast_2d(np.asarray(jam_powers, dtype=float))
    snr = params.alpha_t * tx / (params.alpha_j * jam + params.noise)
    return 0.5 * np.sum(np.log1p(snr), axis=-1)


def sample_simplex(rng: np.random.Generator, n: int, m: int, budget: float) -> np.ndarray:
    """Draw ``n`` uniform points on the simplex {x >= 0, sum x = budget}.

    Flat Dirichlet sampling; returns an (n, m) array.
    """
    if m == 1:
        return np.full((n, 1), float(budget))
    return rng.dirichlet(np.ones(m), size=n) * budget
