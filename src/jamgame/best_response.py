"""Exact best responses for both players.

The transmitter's best response to a fixed jammer allocation is classical
water-filling over the effective floors alpha_j*J_k + N_k.  The jammer's best
response to a fixed transmitter allocation comes from the stationarity system

    alpha_j / (2*(alpha_t*T_k + alpha_j*J_k + N_k))
        - alpha_j / (2*(alpha_j*J_k + N_k)) + u = lambda_k,      (stationarity)
    lambda_k * J_k = 0,   lambda_k >= 0,  J_k >= 0,              (slackness)

where u is the multiplier on sum J_k = J.  On channels where the jammer is
active the quadratic in J_k solves in closed form; the budget then pins u on
the strictly decreasing map u -> sum_k J_k(u).  This is the non-linear
counterpart of the transmitter's water-fill, and it is solved the same way
(Palomar & Fonollosa, IEEE TSP 2005): a binary search over the channels'
sorted breakpoints fixes the active set, and a safeguarded Newton step in
1/u finishes inside it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import Allocation, GameParams, _readonly, require_feasible
from .waterfill import EPS_SOLVE, water_fill

__all__ = [
    "EPS_KKT",
    "EPS_OPT",
    "JammerKktState",
    "KktReport",
    "jam_best_response",
    "jam_closed_form",
    "jam_rate_gradient",
    "kkt_report",
    "tx_best_response",
]

#: Tolerance on KKT residuals (stationarity, slackness, dual feasibility),
#: and on the budget residual relative to max(1, j_budget).
EPS_KKT = 1e-8

#: Tolerance on optimality gaps measured by direct payoff comparison.
EPS_OPT = 1e-6


@dataclass(frozen=True, eq=False)
class JammerKktState:
    """Multipliers certifying a jammer best response.

    ``u`` is the budget multiplier, ``lambdas`` the per-channel nonnegativity
    multipliers.  ``degenerate`` marks the all-zero-transmitter case where the
    payoff does not depend on the jammer at all: every allocation is optimal,
    and the canonical multipliers u = 0, lambda = 0 are reported.
    """

    u: float
    lambdas: np.ndarray
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _readonly(np.asarray(self.lambdas, float)))
        if self.degenerate:
            if self.u != 0.0:
                raise ValueError("degenerate state must carry u = 0")
        elif not math.isfinite(self.u) or self.u <= 0.0:
            raise ValueError("budget multiplier u must be finite and positive")


def tx_best_response(params: GameParams, jam: Allocation) -> tuple[Allocation, float]:
    """Water-fill the transmitter budget against a fixed jammer allocation.

    Returns the optimal transmitter allocation together with the water level
    v over the effective floors alpha_j*J_k + N_k.  The attenuation alpha_t
    scales the poured power, so the allocation is fills / alpha_t.
    """
    require_feasible(jam, params.j_budget, params.m, "jam")
    floors = params.alpha_j * jam.powers + params.noise
    ws = water_fill(floors, params.alpha_t * params.t_budget)
    tx = Allocation(powers=ws.fills / params.alpha_t, budget=params.t_budget)
    return tx, ws.level


def jam_rate_gradient(params: GameParams, tx_powers, jam_powers) -> np.ndarray:
    """Gradient of the rate with respect to the jammer powers.

    d/dJ_k of (1/2) ln(1 + alpha_t*T_k / (alpha_j*J_k + N_k)), elementwise:
    always nonpositive, and zero exactly where T_k = 0.  With a = alpha_t*T_k
    and b = alpha_j*J_k + N_k it is -(alpha_j/2) * (a/(a + b)) / b, the
    difference 1/(a + b) - 1/b without the cancellation that makes it 0 when
    a is far below b.
    """
    a = params.alpha_t * np.asarray(tx_powers, dtype=float)
    base = params.alpha_j * np.asarray(jam_powers, dtype=float) + params.noise
    return -0.5 * params.alpha_j * ((a / (a + base)) / base)


def jam_closed_form(params: GameParams, tx: Allocation, u: float) -> np.ndarray:
    """Per-channel jammer powers that satisfy stationarity at multiplier u.

    On channels with T_k > 0 the active-channel stationarity condition is a
    quadratic in J_k whose admissible root is

        J_k = (1 / (2*alpha_j)) * [ -alpha_t*T_k - 2*N_k
                + sqrt((alpha_t*T_k)^2 + 2*alpha_j*alpha_t*T_k / u) ]+

    Channels with T_k = 0 get J_k = 0: jamming there burns budget without
    touching the payoff, and the bracket above would be negative anyway.
    With a = alpha_t*T_k and r = sqrt(2*alpha_j*a/u), the sqrt difference is
    evaluated as r * r / (hypot(a, r) + a): free of cancellation when u is
    large, and, with r a product of square roots, neither a^2 nor r^2 is
    ever formed, so no magnitude the bracket can hold overflows on the way.
    """
    u = float(u)
    if not math.isfinite(u) or u <= 0.0:
        raise ValueError("multiplier u must be finite and positive")
    powers = np.zeros(params.m)
    mask = tx.powers > 0.0
    if not np.any(mask):
        return powers
    a = params.alpha_t * tx.powers[mask]
    r = np.sqrt(a) * (math.sqrt(2.0 * params.alpha_j) / math.sqrt(u))
    # sqrt(a^2 + r^2) - a, rewritten to avoid subtracting near-equal terms.
    root_gap = r * (r / (np.hypot(a, r) + a))
    bracket = root_gap - 2.0 * params.noise[mask]
    powers[mask] = np.maximum(bracket, 0.0) / (2.0 * params.alpha_j)
    return powers


def _solve_budget_multiplier(
    params: GameParams, tx: Allocation
) -> tuple[float, np.ndarray]:
    """Find u > 0 with sum_k jam_closed_form(u) = j_budget; return u and the powers.

    With a_k = alpha_t*T_k and c_k = 2*(alpha_j*J + N_k), channel k is jammed
    iff u is below its breakpoint u_k, and would absorb the whole budget J
    alone at its single-channel solution s_k:

        u_k = alpha_j*a_k / (2*N_k*(a_k + N_k)),
        s_k = 2*alpha_j*a_k / (c_k*(c_k + 2*a_k)).

    The total is continuous and strictly decreasing in u where positive, and
    u >= max_k s_k, since no channel alone absorbs more than J above it.  A
    binary search over the breakpoints above that bound, in descending order
    and with one total per probe, finds the active set: the n channels with
    the largest u_k.  A lone active channel takes all of J at u = s_k.  With
    more, u lies between the n-th breakpoint and the next lower bound, and
    in x = 1/u each active J_k is concave and increasing, with

        dJ_k/dx = 1/(2*sqrt(1 + 2*alpha_j*x/a_k))
                = a_k / (2*(a_k + 2*N_k + 2*alpha_j*J_k)),

    so Newton steps from the n-th breakpoint, where the total falls short of
    J, climb to the root from below.  A step that leaves the bracket through
    rounding is replaced by bisection.  The search stops once the total is
    within EPS_SOLVE*J of J.  Every probe sits at or above the lower bound,
    where no channel holds more than J, so no total overflows.  A multiplier
    below the normal float range raises ValueError.
    """
    target = params.j_budget
    alpha_j = params.alpha_j
    chans = np.flatnonzero(tx.powers > 0.0)
    a = params.alpha_t * tx.powers[chans]
    noise = params.noise[chans]
    c = 2.0 * (alpha_j * target + noise)
    # Ordered so that no intermediate is subnormal while the result is
    # normal.  c/a or N/a overflowing to inf gives the exact limit 0.
    with np.errstate(over="ignore"):
        single = (2.0 * alpha_j / c) / (c / a + 2.0)
        breaks = (alpha_j / (2.0 * noise)) / (1.0 + noise / a)
    u_bottom = float(single.max())
    if not u_bottom >= sys.float_info.min:
        raise ValueError(
            f"jammer budget multiplier is below the float range: its lower "
            f"bound {u_bottom:.6g} is not a normal float"
        )
    cands = np.sort(breaks[breaks > u_bottom])[::-1]

    # total(cands[lo - 1]) < J <= total(cands[hi - 1]); hi = cands.size + 1
    # stands for u_bottom.
    lo, hi = 1, cands.size + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        u = float(cands[mid - 1])
        powers = jam_closed_form(params, tx, u)
        total = float(powers.sum())
        if total < target:
            lo, top = mid, (u, powers, total)
        else:
            hi = mid

    if lo == 1:
        lone = int(np.argmax(breaks))
        powers = np.zeros(params.m)
        powers[chans[lone]] = target
        return float(single[lone]), powers

    if hi <= cands.size:
        u_bottom = float(cands[hi - 1])
    on = breaks >= top[0]
    active = chans[on]
    a_act = a[on]
    floor_act = a_act + 2.0 * noise[on]
    tol = EPS_SOLVE * target
    u, powers, total = top
    x_lo, x_hi = 1.0 / u, 1.0 / u_bottom
    for _ in range(200):
        if abs(total - target) <= tol:
            break
        heights = floor_act + 2.0 * alpha_j * powers[active]
        slope = float(np.sum(a_act / (2.0 * heights)))
        x = 1.0 / u + ((target - total) / slope if slope > 0.0 else math.inf)
        if not x_lo < x < x_hi:
            x = 0.5 * (x_lo + x_hi)
            if not x_lo < x < x_hi:
                break
        u = 1.0 / x
        powers = jam_closed_form(params, tx, u)
        total = float(powers.sum())
        if total < target:
            x_lo = x
        else:
            x_hi = x
    return u, powers


def jam_best_response(
    params: GameParams, tx: Allocation
) -> tuple[Allocation, JammerKktState]:
    """Optimal jammer allocation against a fixed transmitter allocation.

    Returns the allocation and the KKT multipliers certifying it.  When the
    transmitter is silent everywhere the payoff is identically zero and any
    feasible allocation is a best response; the canonical choice returned is
    noise-water-filling (pour alpha_j*J over the noise floors), flagged
    ``degenerate`` with u = 0.  That case is admitted before the budget check
    since an all-zero vector can never exhaust a positive budget, yet the
    response to it is still well defined; the operation stays total.
    """
    powers = tx.powers
    if (
        powers.size == params.m
        and bool(np.all(np.isfinite(powers)))
        and not np.any(powers != 0.0)
    ):
        ws = water_fill(params.noise, params.alpha_j * params.j_budget)
        jam = Allocation(powers=ws.fills / params.alpha_j, budget=params.j_budget)
        state = JammerKktState(u=0.0, lambdas=np.zeros(params.m), degenerate=True)
        return jam, state

    require_feasible(tx, params.t_budget, params.m, "tx")

    u, powers = _solve_budget_multiplier(params, tx)
    # Exact budget match: the search leaves a relative residual of up to
    # EPS_SOLVE, scaled away here.
    total = powers.sum()
    if total > 0.0:
        powers = powers * (params.j_budget / total)
    jam = Allocation(powers=powers, budget=params.j_budget)
    lambdas = jam_rate_gradient(params, tx.powers, jam.powers) + u
    return jam, JammerKktState(u=u, lambdas=lambdas)


@dataclass(frozen=True)
class KktReport:
    """Residuals of the jammer KKT system at a given point.

    ``stationarity`` is the largest violation of the active-channel condition
    (gradient + u - lambda = 0 holds by construction; what is measured is
    lambda_k = 0 on active channels), ``complementarity`` the largest
    |lambda_k * J_k|, ``dual_violation`` the most negative multiplier, and
    ``primal_gap`` the budget mismatch |sum_k J_k - j_budget|.  ``ok`` judges
    the budget mismatch relative to max(1, j_budget): a sum of correct powers
    is off a large budget by a rounding error that grows with it.
    """

    stationarity: float
    complementarity: float
    dual_violation: float
    primal_gap: float
    j_budget: float

    def ok(self, tol: float = EPS_KKT) -> bool:
        return (
            self.stationarity <= tol
            and self.complementarity <= tol
            and self.dual_violation <= tol
            and self.primal_gap <= tol * max(1.0, self.j_budget)
        )


def kkt_report(
    params: GameParams, tx: Allocation, jam: Allocation, state: JammerKktState
) -> KktReport:
    """Measure how well (jam, state) satisfies the jammer KKT conditions."""
    if state.degenerate:
        gap = abs(float(jam.powers.sum()) - params.j_budget)
        return KktReport(0.0, 0.0, 0.0, gap, params.j_budget)
    grad = jam_rate_gradient(params, tx.powers, jam.powers)
    residual = grad + state.u - state.lambdas
    active = jam.powers > 0.0
    stationarity = float(np.max(np.abs(residual)))
    if np.any(active):
        stationarity = max(stationarity, float(np.max(np.abs(state.lambdas[active]))))
    complementarity = float(np.max(np.abs(state.lambdas * jam.powers)))
    dual_violation = float(max(0.0, -state.lambdas.min()))
    primal_gap = abs(float(jam.powers.sum()) - params.j_budget)
    return KktReport(
        stationarity, complementarity, dual_violation, primal_gap, params.j_budget
    )
