"""Nash equilibrium of the power allocation game, in closed form.

The game has a saddle point in which the jammer itself water-fills: the
equilibrium jammer allocation pours alpha_j*J over the noise floors up to a
level w, and the transmitter then water-fills alpha_t*T over the flattened
floors max(N_k, w) up to a level v > w.  The jammer's budget multiplier is
recovered exactly from the pair of levels:

    w = v*alpha_j / (alpha_j + 2*u*v)   <=>   u = alpha_j*(v - w) / (2*v*w).

Each channel falls into one of three regimes by comparing its noise power to
the two levels: noise at or above v is unused by both players, noise strictly
between w and v carries transmitter power but no jamming, and noise at or
below w is contested.  Every powered channel reaches the transmitter level:
alpha_t*T_k + alpha_j*J_k + N_k = v, with J_k = 0 on TxOnly channels.

saddle_probe, which verify_nash runs, checks a candidate saddle against
random unilateral deviations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .best_response import (
    EPS_KKT,
    EPS_OPT,
    JammerKktState,
    KktReport,
    jam_best_response,
    jam_rate_gradient,
    kkt_report,
    tx_best_response,
)
from .core import (
    Allocation,
    GameParams,
    require_feasible,
    sample_simplex,
    utility,
    utility_batch,
)
from .waterfill import water_fill

__all__ = [
    "NashSolution",
    "NashVerification",
    "RegimeLabel",
    "SaddleReport",
    "classify_regimes",
    "saddle_probe",
    "solve_nash",
    "verify_nash",
]


class RegimeLabel(enum.Enum):
    """Which role a channel plays at equilibrium."""

    UNUSED = "Unused"
    TX_ONLY = "TxOnly"
    CONTESTED = "Contested"


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Equilibrium allocations with the levels and multiplier behind them.

    ``v`` is the transmitter water level, ``w`` the jammer water level,
    ``u`` the jammer budget multiplier, ``value`` the equilibrium rate.
    """

    tx: Allocation
    jam: Allocation
    v: float
    w: float
    u: float
    regimes: tuple[RegimeLabel, ...]
    value: float


def classify_regimes(noise: np.ndarray, v: float, w: float) -> tuple[RegimeLabel, ...]:
    """Label every channel from its noise and the two water levels v > w."""
    labels = []
    for n in noise:
        if n >= v:
            labels.append(RegimeLabel.UNUSED)
        elif n > w:
            labels.append(RegimeLabel.TX_ONLY)
        else:
            labels.append(RegimeLabel.CONTESTED)
    return tuple(labels)


def solve_nash(params: GameParams) -> NashSolution:
    """Compute the unique Nash equilibrium of the game.

    The construction is two nested water-fillings.  First the jammer pours
    alpha_j*J over the raw noise floors, fixing the level w.  Then the
    transmitter pours alpha_t*T over the floors max(N_k, w), fixing v.  The
    multiplier u follows algebraically from (v, w).  A budget so small next
    to the floors it is poured over that it fills no channel in floating
    point raises ValueError naming that budget.
    """
    noise = params.noise
    jam_ws = water_fill(noise, params.alpha_j * params.j_budget)
    w = jam_ws.level
    if not jam_ws.active:
        raise ValueError(
            f"j_budget {params.j_budget:.6g} is below the float resolution of "
            f"the noise floors it is poured over (lowest {float(noise.min()):.6g})"
        )

    tx_ws = water_fill(np.maximum(noise, w), params.alpha_t * params.t_budget)
    v = tx_ws.level
    if not tx_ws.active:
        raise ValueError(
            f"t_budget {params.t_budget:.6g} is below the float resolution of "
            f"the floors max(N_k, w) it is poured over (jammer level w = {w:.6g})"
        )

    u = params.alpha_j * (v - w) / (2.0 * v * w)
    tx = Allocation(powers=tx_ws.fills / params.alpha_t, budget=params.t_budget)
    jam = Allocation(powers=jam_ws.fills / params.alpha_j, budget=params.j_budget)
    return NashSolution(
        tx=tx,
        jam=jam,
        v=v,
        w=w,
        u=u,
        regimes=classify_regimes(noise, v, w),
        value=float(utility_batch(params, tx.powers, jam.powers)[0]),
    )


@dataclass(frozen=True)
class SaddleReport:
    """Tally of random unilateral deviations against a candidate saddle.

    ``tx_excess`` / ``jam_shortfall`` are the largest payoff improvements any
    deviation achieved (positive means the saddle property was beaten);
    the violation counts use ``tol`` as the pass line.
    """

    trials: int
    seed: int
    tol: float
    tx_excess: float
    jam_shortfall: float
    tx_violations: int
    jam_violations: int
    ok: bool


def saddle_probe(
    params: GameParams,
    tx: Allocation,
    jam: Allocation,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = EPS_OPT,
) -> SaddleReport:
    """Test the saddle inequalities against random unilateral deviations.

    No transmitter deviation should raise the payoff above the candidate
    value, and no jammer deviation should push it below.  Draws ``trials``
    transmitter deviations and then ``trials`` jammer deviations from the
    uniform simplex distribution (one shared generator, fixed draw order, so
    a seed pins the entire report bit for bit) and records the worst
    violation on each side.  Zero trials is vacuous; a negative count raises
    ValueError.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0:
        return SaddleReport(0, seed, tol, 0.0, 0.0, 0, 0, True)
    value = utility(params, tx, jam)
    rng = np.random.default_rng(seed)
    tx_devs = sample_simplex(rng, trials, params.m, params.t_budget)
    jam_devs = sample_simplex(rng, trials, params.m, params.j_budget)
    tx_vals = utility_batch(params, tx_devs, jam.powers)
    jam_vals = utility_batch(params, tx.powers, jam_devs)
    tx_excess = float(tx_vals.max() - value)
    jam_shortfall = float(value - jam_vals.min())
    tx_violations = int(np.count_nonzero(tx_vals > value + tol))
    jam_violations = int(np.count_nonzero(jam_vals < value - tol))
    return SaddleReport(
        trials=trials,
        seed=seed,
        tol=tol,
        tx_excess=tx_excess,
        jam_shortfall=jam_shortfall,
        tx_violations=tx_violations,
        jam_violations=jam_violations,
        ok=tx_violations == 0 and jam_violations == 0,
    )


@dataclass(frozen=True, eq=False)
class NashVerification:
    """Evidence that a candidate solution is the saddle point.

    ``tx_gap`` is how much the transmitter could still gain (best response
    value minus candidate value; nonnegative, near zero at equilibrium), and
    ``jam_gap`` how much the jammer could still remove.  ``tx_excess`` and
    ``jam_shortfall`` are the worst payoff movements over random deviations:
    positive tx_excess means some transmitter deviation beat the candidate,
    positive jam_shortfall means some jammer deviation pushed the rate below
    it.  ``kkt`` carries the jammer multiplier residuals, and the two
    reconstruction gaps tie the stored levels back to the allocations.
    """

    tx_gap: float
    jam_gap: float
    tx_excess: float
    jam_shortfall: float
    kkt: KktReport
    regime_failures: tuple[str, ...]
    level_gap: float
    multiplier_gap: float
    deviations: int
    seed: int
    ok: bool


def verify_nash(
    params: GameParams,
    sol: NashSolution,
    deviations: int = 512,
    seed: int = 0,
) -> NashVerification:
    """Stress a candidate equilibrium from every angle the theory offers.

    Checks are: (1) both allocations feasible; (2) best-response gaps for the
    two players within EPS_OPT; (3) ``deviations`` random simplex deviations
    per player (saddle_probe) never improve on the candidate beyond EPS_OPT;
    (4) jammer KKT residuals within EPS_KKT; (5) regime labels match the
    stored levels, Unused channels carry no power, TxOnly channels are not
    jammed, and every powered channel reaches height v within EPS_OPT;
    (6) the stored (v, w, u) reproduce each other through the closed-form
    relation.  Zero deviations skip check (3); a negative count raises
    ValueError.  The candidate is checked once, on entry; the best responses
    built from it are scored unchecked.
    """
    require_feasible(sol.tx, params.t_budget, params.m, "tx")
    require_feasible(sol.jam, params.j_budget, params.m, "jam")

    value = float(utility_batch(params, sol.tx.powers, sol.jam.powers)[0])

    tx_star, _ = tx_best_response(params, sol.jam)
    tx_gap = float(utility_batch(params, tx_star.powers, sol.jam.powers)[0]) - value

    jam_star, _ = jam_best_response(params, sol.tx)
    jam_gap = value - float(utility_batch(params, sol.tx.powers, jam_star.powers)[0])

    probe = saddle_probe(params, sol.tx, sol.jam, trials=deviations, seed=seed)

    state = JammerKktState(
        u=sol.u,
        lambdas=jam_rate_gradient(params, sol.tx.powers, sol.jam.powers) + sol.u,
    )
    kkt = kkt_report(params, sol.tx, sol.jam, state)

    regime_failures: list[str] = []
    expected = classify_regimes(params.noise, sol.v, sol.w)
    zero_tx = 1e-9 * params.t_budget
    zero_jam = 1e-9 * params.j_budget
    for k, label in enumerate(sol.regimes):
        t_k = float(sol.tx.powers[k])
        j_k = float(sol.jam.powers[k])
        if label is not expected[k]:
            regime_failures.append(
                f"channel {k}: labeled {label.value}, levels say {expected[k].value}"
            )
            continue
        if label is RegimeLabel.UNUSED:
            if t_k > zero_tx or j_k > zero_jam:
                regime_failures.append(f"channel {k}: Unused but carries power")
            continue
        if label is RegimeLabel.TX_ONLY and j_k > zero_jam:
            regime_failures.append(f"channel {k}: TxOnly but jammed")
        height = params.alpha_t * t_k + params.alpha_j * j_k + params.noise[k]
        if abs(height - sol.v) > EPS_OPT * max(1.0, sol.v):
            name = "contested" if label is RegimeLabel.CONTESTED else label.value
            regime_failures.append(f"channel {k}: {name} height {height:.12g} misses v")

    w_back = sol.v * params.alpha_j / (params.alpha_j + 2.0 * sol.u * sol.v)
    level_gap = abs(w_back - sol.w)
    u_back = params.alpha_j * (sol.v - sol.w) / (2.0 * sol.v * sol.w)
    multiplier_gap = abs(u_back - sol.u)

    ok = (
        tx_gap <= EPS_OPT
        and jam_gap <= EPS_OPT
        and probe.tx_excess <= EPS_OPT
        and probe.jam_shortfall <= EPS_OPT
        and kkt.ok(EPS_KKT)
        and not regime_failures
        and level_gap <= EPS_OPT * max(1.0, sol.w)
        and multiplier_gap <= EPS_OPT * max(1.0, sol.u)
    )
    return NashVerification(
        tx_gap=float(tx_gap),
        jam_gap=float(jam_gap),
        tx_excess=probe.tx_excess,
        jam_shortfall=probe.jam_shortfall,
        kkt=kkt,
        regime_failures=tuple(regime_failures),
        level_gap=float(level_gap),
        multiplier_gap=float(multiplier_gap),
        deviations=deviations,
        seed=seed,
        ok=ok,
    )
